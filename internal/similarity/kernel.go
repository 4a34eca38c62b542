package similarity

import (
	"math"
	"sync"
)

// kernelFn scores one interned profile pair using (only) the session's
// scratch buffers. Kernels are compiled per metric tree and must return
// the exact float64 the reference Metric.Similarity returns — the
// scoring engine and the candidate index's parity guarantees both
// depend on bit-identical scores.
type kernelFn func(a, b *NameProfile, s *Scratch) float64

// Kernel is a compiled, allocation-free evaluator for one metric tree
// over interned NameProfiles. Compile once per metric (NewKernel),
// then open one KernelSession per worker goroutine; the session's
// scratch buffers make the warm scoring path allocation-free for the
// edit, OSA, Jaro, Jaro-Winkler, q-gram, and token families. Metrics
// without a native kernel (Soundex, MetricFunc, non-trigram q-grams,
// unknown implementations) compile to a fallback that calls the
// reference Similarity, so NewKernel never fails and parity is
// trivially preserved.
type Kernel struct {
	metric Metric
	fn     kernelFn
	in     *Interner
	pool   sync.Pool
}

// NewKernel compiles metric; nil selects DefaultNameMetric. The
// kernel's interner carries the synonym dictionary discovered in the
// metric tree, so profiles expose the matching class features.
func NewKernel(metric Metric) *Kernel {
	if metric == nil {
		metric = DefaultNameMetric()
	}
	fn, dict := compileKernel(metric)
	k := &Kernel{metric: metric, fn: fn, in: NewInterner(dict)}
	k.pool.New = func() any { return newScratch() }
	return k
}

// Metric returns the compiled metric.
func (k *Kernel) Metric() Metric { return k.metric }

// Interner returns the kernel's profile interner — share it with the
// candidate index (candindex.Config.Profiles) so both sides profile
// each distinct name once.
func (k *Kernel) Interner() *Interner { return k.in }

// Session returns a scoring session holding pooled scratch. Sessions
// are not safe for concurrent use: open one per goroutine and Close it
// to return the scratch to the pool.
func (k *Kernel) Session() *KernelSession {
	return &KernelSession{k: k, s: k.pool.Get().(*Scratch)}
}

// KernelSession scores pairs through a compiled kernel with private
// scratch. The warm path (profiles interned, buffers grown) performs
// zero heap allocations per scored pair for the natively compiled
// metric families.
type KernelSession struct {
	k *Kernel
	s *Scratch
}

// Similarity returns exactly Metric.Similarity(a, b) for the kernel's
// metric.
func (ks *KernelSession) Similarity(a, b string) float64 {
	in := ks.k.in
	return ks.k.fn(in.Profile(a), in.Profile(b), ks.s)
}

// Profile interns and returns the profile of name; pair it with
// SimilarityProfiles to amortize the row-name lookup across a row.
func (ks *KernelSession) Profile(name string) *NameProfile { return ks.k.in.Profile(name) }

// SimilarityProfiles scores two profiles of this kernel's interner.
func (ks *KernelSession) SimilarityProfiles(a, b *NameProfile) float64 {
	return ks.k.fn(a, b, ks.s)
}

// Close returns the session's scratch to the kernel pool. The session
// must not be used afterwards.
func (ks *KernelSession) Close() {
	if ks.s != nil {
		ks.k.pool.Put(ks.s)
		ks.s = nil
	}
}

// compileKernel builds the kernel for a metric tree and reports the
// synonym dictionary discovered in it, if any.
func compileKernel(m Metric) (kernelFn, *SynonymDict) {
	switch t := m.(type) {
	case SynonymSim:
		return compileSynonym(t)
	case *Combined:
		parts := t.Parts()
		fns := make([]kernelFn, len(parts))
		ws := make([]float64, len(parts))
		var dict *SynonymDict
		for i, p := range parts {
			var pd *SynonymDict
			fns[i], pd = compileKernel(p.Metric)
			ws[i] = p.Weight
			if dict == nil {
				dict = pd
			}
		}
		return func(a, b *NameProfile, s *Scratch) float64 {
			sum := 0.0
			for i, f := range fns {
				sum += ws[i] * f(a, b, s)
			}
			return clamp01(sum)
		}, dict
	case QGramSim:
		if t.Q() == GramQ {
			return qgramKernel, nil
		}
		return fallbackKernel(m), nil
	case EditSim:
		return editKernel, nil
	case OSASim:
		return osaKernel, nil
	case JaroSim:
		return jaroKernel, nil
	case JaroWinklerSim:
		return jaroWinklerKernel, nil
	case JaccardSim:
		return jaccardKernel, nil
	case DiceSim:
		return diceKernel, nil
	case CosineSim:
		return cosineKernel, nil
	case CommonPrefixSim:
		return prefixKernel, nil
	case CommonSuffixSim:
		return suffixKernel, nil
	case LCSSim:
		return lcsKernel, nil
	case MongeElkan:
		inner := t.Inner
		if inner == nil {
			inner = JaroWinklerSim{}
		}
		fn, dict := compileKernel(inner)
		return mongeElkanKernel(fn, false), dict
	case SymMongeElkan:
		inner := t.Inner
		if inner == nil {
			inner = JaroWinklerSim{}
		}
		fn, dict := compileKernel(inner)
		return mongeElkanKernel(fn, true), dict
	default:
		// SoundexSim, MetricFunc, non-trigram q-grams, and anything
		// unknown: no native kernel, evaluate the reference.
		return fallbackKernel(m), nil
	}
}

func fallbackKernel(m Metric) kernelFn {
	return func(a, b *NameProfile, _ *Scratch) float64 {
		return m.Similarity(a.Name, b.Name)
	}
}

func compileSynonym(t SynonymSim) (kernelFn, *SynonymDict) {
	base := t.Base
	if base == nil {
		base = EditSim{}
	}
	bf, _ := compileKernel(base)
	if t.Dict == nil {
		return bf, nil
	}
	return func(a, b *NameProfile, s *Scratch) float64 {
		// NormID equality is exactly normWord equality, and Class carries
		// SynonymDict.ClassID, so this mirrors Dict.Synonyms(a, b).
		if a.NormID == b.NormID || (a.Class >= 0 && a.Class == b.Class) {
			return 1
		}
		if len(a.Toks) > 0 && len(b.Toks) > 0 {
			sum := 0.0
			for _, x := range a.Toks {
				best := 0.0
				for _, y := range b.Toks {
					var sc float64
					if x.NormID == y.NormID || (x.Class >= 0 && x.Class == y.Class) {
						sc = 1
					} else {
						sc = bf(x, y, s)
					}
					if sc > best {
						best = sc
					}
				}
				sum += best
			}
			tokScore := sum / float64(len(a.Toks))
			if bs := bf(a, b, s); bs > tokScore {
				return bs
			}
			return tokScore
		}
		return bf(a, b, s)
	}, t.Dict
}

// ---------------------------------------------------------------------------
// Edit-distance family
// ---------------------------------------------------------------------------

func editKernel(a, b *NameProfile, s *Scratch) float64 {
	la, lb := len(a.Runes), len(b.Runes)
	if la == 0 && lb == 0 {
		return 1
	}
	mx := la
	if lb > mx {
		mx = lb
	}
	p, t := a, b
	if len(p.Runes) > len(t.Runes) {
		p, t = t, p
	}
	d := s.myersDistance(p.Runes, t.Runes, p.ASCII)
	return 1 - float64(d)/float64(mx)
}

func osaKernel(a, b *NameProfile, s *Scratch) float64 {
	la, lb := len(a.Runes), len(b.Runes)
	if la == 0 && lb == 0 {
		return 1
	}
	mx := la
	if lb > mx {
		mx = lb
	}
	return 1 - float64(osaDistance(a.Runes, b.Runes, s))/float64(mx)
}

// osaDistance is OSADistance on rune slices with scratch-backed rows.
func osaDistance(ra, rb []rune, s *Scratch) int {
	n, m := len(ra), len(rb)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	s.rowA = growInts(s.rowA, m+1)
	s.rowB = growInts(s.rowB, m+1)
	s.rowC = growInts(s.rowC, m+1)
	prev2, prev, cur := s.rowA, s.rowB, s.rowC
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

// ---------------------------------------------------------------------------
// Jaro family
// ---------------------------------------------------------------------------

func jaroKernel(a, b *NameProfile, s *Scratch) float64 {
	ra, rb := a.Runes, b.Runes
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// Disjoint bitmaps prove zero matches; the reference returns 0 then.
	if a.Bitmap&b.Bitmap == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	s.matchedA = growBools(s.matchedA, la)
	s.matchedB = growBools(s.matchedB, lb)
	matchedA, matchedB := s.matchedA, s.matchedB
	for i := range matchedA {
		matchedA[i] = false
	}
	for j := range matchedB {
		matchedB[j] = false
	}
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

func jaroWinklerKernel(a, b *NameProfile, s *Scratch) float64 {
	j := jaroKernel(a, b, s)
	prefix := 0
	ra, rb := a.Runes, b.Runes
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// ---------------------------------------------------------------------------
// q-gram overlap
// ---------------------------------------------------------------------------

func qgramKernel(a, b *NameProfile, _ *Scratch) float64 {
	if len(a.Runes) == 0 && len(b.Runes) == 0 {
		return 1
	}
	total := len(a.Grams) + len(b.Grams)
	if total == 0 {
		return 0
	}
	inter := MergeCount(a.Grams, b.Grams)
	return 2 * float64(inter) / float64(total)
}

// ---------------------------------------------------------------------------
// Token-set measures
// ---------------------------------------------------------------------------

func jaccardKernel(a, b *NameProfile, _ *Scratch) float64 {
	if len(a.TokIDs) == 0 && len(b.TokIDs) == 0 {
		return 1
	}
	inter := MergeCount(a.TokIDs, b.TokIDs)
	union := len(a.TokIDs) + len(b.TokIDs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func diceKernel(a, b *NameProfile, _ *Scratch) float64 {
	if len(a.TokIDs) == 0 && len(b.TokIDs) == 0 {
		return 1
	}
	if len(a.TokIDs)+len(b.TokIDs) == 0 {
		return 0
	}
	inter := MergeCount(a.TokIDs, b.TokIDs)
	return 2 * float64(inter) / float64(len(a.TokIDs)+len(b.TokIDs))
}

func cosineKernel(a, b *NameProfile, _ *Scratch) float64 {
	if len(a.Toks) == 0 && len(b.Toks) == 0 {
		return 1
	}
	// Integer-valued float64 sums are exact, so accumulation order does
	// not matter and the merge below reproduces the reference's
	// map-iteration sums bit for bit.
	dot, na, nb := 0.0, 0.0, 0.0
	i, j := 0, 0
	for i < len(a.TokIDs) && j < len(b.TokIDs) {
		switch {
		case a.TokIDs[i] < b.TokIDs[j]:
			x := int(a.TokCounts[i])
			na += float64(x * x)
			i++
		case a.TokIDs[i] > b.TokIDs[j]:
			y := int(b.TokCounts[j])
			nb += float64(y * y)
			j++
		default:
			x, y := int(a.TokCounts[i]), int(b.TokCounts[j])
			na += float64(x * x)
			nb += float64(y * y)
			dot += float64(x * y)
			i++
			j++
		}
	}
	for ; i < len(a.TokIDs); i++ {
		x := int(a.TokCounts[i])
		na += float64(x * x)
	}
	for ; j < len(b.TokIDs); j++ {
		y := int(b.TokCounts[j])
		nb += float64(y * y)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func mongeElkanKernel(inner kernelFn, symmetric bool) kernelFn {
	asym := func(a, b *NameProfile, s *Scratch) float64 {
		if len(a.Toks) == 0 && len(b.Toks) == 0 {
			return 1
		}
		if len(a.Toks) == 0 || len(b.Toks) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range a.Toks {
			best := 0.0
			for _, y := range b.Toks {
				if sc := inner(x, y, s); sc > best {
					best = sc
				}
			}
			sum += best
		}
		return sum / float64(len(a.Toks))
	}
	if !symmetric {
		return asym
	}
	return func(a, b *NameProfile, s *Scratch) float64 {
		return (asym(a, b, s) + asym(b, a, s)) / 2
	}
}

// ---------------------------------------------------------------------------
// Affix and substring measures
// ---------------------------------------------------------------------------

func prefixKernel(a, b *NameProfile, _ *Scratch) float64 {
	ra, rb := a.Lower, b.Lower
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

func suffixKernel(a, b *NameProfile, _ *Scratch) float64 {
	ra, rb := a.Lower, b.Lower
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

func lcsKernel(a, b *NameProfile, s *Scratch) float64 {
	la, lb := len(a.Runes), len(b.Runes)
	if la == 0 && lb == 0 {
		return 1
	}
	n := minInt2(la, lb)
	if n == 0 {
		return 0
	}
	return float64(lcsLength(a.Lower, b.Lower, s)) / float64(n)
}

// lcsLength is LongestCommonSubstring on rune slices with scratch rows.
func lcsLength(ra, rb []rune, s *Scratch) int {
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	s.rowA = growInts(s.rowA, len(rb)+1)
	s.rowB = growInts(s.rowB, len(rb)+1)
	prev, cur := s.rowA, s.rowB
	for j := range prev {
		prev[j] = 0
	}
	best := 0
	for i := 1; i <= len(ra); i++ {
		cur[0] = 0
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
