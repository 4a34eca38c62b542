// Package similarity implements the string similarity measures used to
// build the objective function ∆ of the schema matchers. Every measure
// is normalized: a Metric returns a similarity score in [0, 1] where 1
// means identical and 0 means maximally dissimilar. Distances (lower is
// better) are obtained via Distance.
//
// The measures here are the classical ones surveyed by Rahm & Bernstein
// ("A survey of approaches to automatic schema matching", VLDB J. 2001),
// which the reproduced paper cites as the source of XML schema matching
// heuristics: edit distance, Jaro/Jaro-Winkler, q-grams, token overlap
// (Jaccard, Dice, cosine), longest common prefix/suffix/substring, a
// Monge-Elkan token aligner, and a synonym-dictionary lookup.
//
// # Kernels, profiles, and the parity contract
//
// The Metric implementations above are the reference: straightforward,
// allocation-heavy, and the definition of correctness. The hot path
// runs through compiled kernels instead (NewKernel): each distinct name
// is interned once into a NameProfile (rune slices, lower-cased form,
// token splits, q-gram IDs, character bitmaps — see Interner), and a
// KernelSession scores profile pairs against per-session scratch
// buffers, so the warm path performs zero heap allocations per pair.
// Edit distance runs bit-parallel (Myers 1999): ASCII patterns up to 64
// runes through a table-indexed fast path, Unicode patterns through a
// reused map, and longer patterns through the multi-word block variant
// — all rune-mapped, so Unicode input stays exact.
//
// Kernels must return bit-identical float64 values to the reference
// Similarity for every input — not merely close: the scoring engine
// serves kernel scores where the paper's objective is defined by the
// metric, and the candidate index's answer-set guarantees compare
// floats exactly. Metrics without a native kernel (Soundex, MetricFunc,
// non-trigram q-grams, unknown implementations) compile to a fallback
// invoking the reference, so compilation never fails and the contract
// holds trivially. FuzzKernelParity enforces exact equality across the
// registry metrics on arbitrary Unicode input.
package similarity

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

// Metric scores the similarity of two strings in [0, 1].
type Metric interface {
	// Similarity returns a score in [0,1]; 1 means identical.
	Similarity(a, b string) float64
	// Name identifies the metric in reports and configs.
	Name() string
}

// Distance converts a Metric similarity into a dissimilarity in [0,1].
func Distance(m Metric, a, b string) float64 {
	return 1 - clamp01(m.Similarity(a, b))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc struct {
	Fn    func(a, b string) float64
	Label string
}

// Similarity calls the wrapped function and clamps the result to [0,1].
func (m MetricFunc) Similarity(a, b string) float64 { return clamp01(m.Fn(a, b)) }

// Name returns the metric label.
func (m MetricFunc) Name() string { return m.Label }

// ---------------------------------------------------------------------------
// Edit-distance family
// ---------------------------------------------------------------------------

// Levenshtein computes the classic edit distance (insert, delete,
// substitute, unit costs) between a and b, operating on runes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// OSADistance computes the optimal string alignment distance: Levenshtein
// extended with transposition of adjacent runes (Damerau's restriction:
// no substring is edited twice).
func OSADistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	n, m := len(ra), len(rb)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	// Three rolling rows are enough for the transposition lookback.
	prev2 := make([]int, m+1)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < cur[j] {
					cur[j] = t
				}
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[m]
}

// EditSim is the Levenshtein distance normalized by the longer string:
// 1 - lev(a,b)/max(|a|,|b|). Identical strings score 1; when either
// string is empty the score is 1 only if both are.
type EditSim struct{}

// Similarity implements Metric.
func (EditSim) Similarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	mx := la
	if lb > mx {
		mx = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(mx)
}

// Name implements Metric.
func (EditSim) Name() string { return "edit" }

// OSASim normalizes OSADistance the same way EditSim normalizes
// Levenshtein; it forgives adjacent-character transpositions (typos).
type OSASim struct{}

// Similarity implements Metric.
func (OSASim) Similarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	mx := la
	if lb > mx {
		mx = lb
	}
	return 1 - float64(OSADistance(a, b))/float64(mx)
}

// Name implements Metric.
func (OSASim) Name() string { return "osa" }

// ---------------------------------------------------------------------------
// Jaro and Jaro-Winkler
// ---------------------------------------------------------------------------

// Jaro computes the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-window)
		hi := minInt2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters in order.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro for strings sharing a common prefix of up to
// four runes, using the standard scaling factor p=0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// JaroSim exposes Jaro as a Metric.
type JaroSim struct{}

// Similarity implements Metric.
func (JaroSim) Similarity(a, b string) float64 { return Jaro(a, b) }

// Name implements Metric.
func (JaroSim) Name() string { return "jaro" }

// JaroWinklerSim exposes JaroWinkler as a Metric.
type JaroWinklerSim struct{}

// Similarity implements Metric.
func (JaroWinklerSim) Similarity(a, b string) float64 { return JaroWinkler(a, b) }

// Name implements Metric.
func (JaroWinklerSim) Name() string { return "jaro-winkler" }

// ---------------------------------------------------------------------------
// q-gram overlap
// ---------------------------------------------------------------------------

// QGramSim measures Dice overlap of padded q-gram multisets. Q must be
// at least 1; NewQGramSim validates it.
type QGramSim struct {
	q int
}

// NewQGramSim returns a q-gram metric. It returns an error for q < 1.
func NewQGramSim(q int) (QGramSim, error) {
	if q < 1 {
		return QGramSim{}, fmt.Errorf("similarity: q-gram size %d < 1", q)
	}
	return QGramSim{q: q}, nil
}

// Q returns the gram size.
func (g QGramSim) Q() int { return g.q }

// grams returns the multiset of padded q-grams of s as a count map.
func (g QGramSim) grams(s string) map[string]int {
	pad := strings.Repeat("#", g.q-1)
	padded := pad + strings.ToLower(s) + pad
	rs := []rune(padded)
	out := make(map[string]int)
	for i := 0; i+g.q <= len(rs); i++ {
		out[string(rs[i:i+g.q])]++
	}
	return out
}

// Similarity implements Metric via the Dice coefficient on q-gram
// multisets: 2·|A∩B| / (|A|+|B|).
func (g QGramSim) Similarity(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	ga, gb := g.grams(a), g.grams(b)
	inter, total := 0, 0
	for k, ca := range ga {
		total += ca
		if cb, ok := gb[k]; ok {
			inter += minInt2(ca, cb)
		}
	}
	for _, cb := range gb {
		total += cb
	}
	if total == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(total)
}

// Name implements Metric.
func (g QGramSim) Name() string { return fmt.Sprintf("%d-gram", g.q) }

// ---------------------------------------------------------------------------
// Token-set measures
// ---------------------------------------------------------------------------

// Tokenize splits a schema element name into lower-cased word tokens.
// It understands camelCase, PascalCase, snake_case, kebab-case, dotted
// names, digit boundaries and acronym runs (e.g. "XMLSchemaID" →
// ["xml", "schema", "id"]).
func Tokenize(s string) []string {
	var tokens []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			tokens = append(tokens, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	rs := []rune(s)
	for i, r := range rs {
		switch {
		case r == '_' || r == '-' || r == '.' || r == '/' || r == ' ' || r == ':':
			flush()
		case unicode.IsDigit(r):
			if len(cur) > 0 && !unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			cur = append(cur, r)
		case unicode.IsUpper(r):
			if len(cur) > 0 {
				prev := cur[len(cur)-1]
				// Boundary at lower→Upper, and at the last capital of an
				// acronym run followed by a lowercase ("XMLSchema" → XML|Schema).
				nextLower := i+1 < len(rs) && unicode.IsLower(rs[i+1])
				if unicode.IsLower(prev) || unicode.IsDigit(prev) || (unicode.IsUpper(prev) && nextLower) {
					flush()
				}
			}
			cur = append(cur, r)
		default:
			if len(cur) > 0 && unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			cur = append(cur, r)
		}
	}
	flush()
	return tokens
}

func tokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// JaccardSim is token-set Jaccard overlap |A∩B|/|A∪B| after Tokenize.
type JaccardSim struct{}

// Similarity implements Metric.
func (JaccardSim) Similarity(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Name implements Metric.
func (JaccardSim) Name() string { return "jaccard" }

// DiceSim is the token-set Dice coefficient 2|A∩B|/(|A|+|B|).
type DiceSim struct{}

// Similarity implements Metric.
func (DiceSim) Similarity(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	if len(sa)+len(sb) == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(len(sa)+len(sb))
}

// Name implements Metric.
func (DiceSim) Name() string { return "dice" }

// CosineSim is cosine similarity over token count vectors.
type CosineSim struct{}

// Similarity implements Metric.
func (CosineSim) Similarity(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	ca := make(map[string]int)
	for _, t := range ta {
		ca[t]++
	}
	cb := make(map[string]int)
	for _, t := range tb {
		cb[t]++
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for t, x := range ca {
		na += float64(x * x)
		if y, ok := cb[t]; ok {
			dot += float64(x * y)
		}
	}
	for _, y := range cb {
		nb += float64(y * y)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Name implements Metric.
func (CosineSim) Name() string { return "cosine" }

// MongeElkan aligns the tokens of a against their best-matching tokens
// of b under an inner metric, averaging the best scores. It is
// asymmetric by definition; SymMongeElkan symmetrizes it.
type MongeElkan struct {
	Inner Metric
}

func (m MongeElkan) inner() Metric {
	if m.Inner == nil {
		return JaroWinklerSim{}
	}
	return m.Inner
}

// mongeElkanTokens is the token-level core: both strings are tokenized
// exactly once by the caller and the slices are reused across the whole
// alignment (and, in SymMongeElkan, across both directions).
func mongeElkanTokens(inner Metric, ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := inner.Similarity(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// Similarity implements Metric (asymmetric variant, a against b).
func (m MongeElkan) Similarity(a, b string) float64 {
	return mongeElkanTokens(m.inner(), Tokenize(a), Tokenize(b))
}

// Name implements Metric.
func (m MongeElkan) Name() string { return "monge-elkan" }

// SymMongeElkan is the symmetric mean of MongeElkan both ways.
type SymMongeElkan struct {
	Inner Metric
}

// Similarity implements Metric. Each string is tokenized once and the
// token slices serve both alignment directions.
func (m SymMongeElkan) Similarity(a, b string) float64 {
	inner := MongeElkan{Inner: m.Inner}.inner()
	ta, tb := Tokenize(a), Tokenize(b)
	return (mongeElkanTokens(inner, ta, tb) + mongeElkanTokens(inner, tb, ta)) / 2
}

// Name implements Metric.
func (m SymMongeElkan) Name() string { return "sym-monge-elkan" }

// ---------------------------------------------------------------------------
// Affix measures
// ---------------------------------------------------------------------------

// CommonPrefixSim scores the longest common prefix relative to the
// shorter string, a cheap signal that catches abbreviations
// ("addr" vs "address").
type CommonPrefixSim struct{}

// Similarity implements Metric.
func (CommonPrefixSim) Similarity(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := minInt2(len(ra), len(rb))
	if n == 0 {
		return 0
	}
	i := 0
	for i < n && ra[i] == rb[i] {
		i++
	}
	return float64(i) / float64(n)
}

// Name implements Metric.
func (CommonPrefixSim) Name() string { return "prefix" }

// CommonSuffixSim mirrors CommonPrefixSim for suffixes.
type CommonSuffixSim struct{}

// Similarity implements Metric.
func (CommonSuffixSim) Similarity(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := minInt2(len(ra), len(rb))
	if n == 0 {
		return 0
	}
	i := 0
	for i < n && ra[len(ra)-1-i] == rb[len(rb)-1-i] {
		i++
	}
	return float64(i) / float64(n)
}

// Name implements Metric.
func (CommonSuffixSim) Name() string { return "suffix" }

// LongestCommonSubstring returns the length of the longest common
// contiguous rune sequence of a and b.
func LongestCommonSubstring(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// LCSSim normalizes LongestCommonSubstring by the shorter string.
type LCSSim struct{}

// Similarity implements Metric.
func (LCSSim) Similarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	n := minInt2(la, lb)
	if n == 0 {
		return 0
	}
	return float64(LongestCommonSubstring(strings.ToLower(a), strings.ToLower(b))) / float64(n)
}

// Name implements Metric.
func (LCSSim) Name() string { return "lcs" }

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func minInt(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
