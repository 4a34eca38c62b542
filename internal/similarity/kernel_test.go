package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// parityMetrics is every metric the kernel compiler handles natively,
// plus fallback cases (soundex, bigram) where parity is structural.
func parityMetrics(t testing.TB) map[string]Metric {
	ms := make(map[string]Metric)
	for _, name := range MetricNames() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		ms[name] = m
	}
	ms["sym-monge-elkan"] = SymMongeElkan{}
	ms["monge-elkan-edit"] = MongeElkan{Inner: EditSim{}}
	ms["synonym-bare"] = SynonymSim{Dict: DefaultSchemaSynonyms()}
	return ms
}

// parityCorpus exercises ASCII, Unicode, case boundaries, separators,
// whitespace normalization, long strings (single- and multi-word
// Myers), and synonym-dictionary hits.
func parityCorpus() []string {
	long := strings.Repeat("abcdef_", 12) + "tail" // > 64 runes
	longer := strings.Repeat("schemaElement", 12)  // > 128 runes
	uni := "ünïcødé-Ératosthène"                   //
	uniLong := strings.Repeat("Ωμέγα", 30)         // > 64 unicode runes
	return []string{
		"", " ", "  ", "#", "a", "A", "customerName", "client_name",
		"CustomerName", "customer name", " customer ", "customer",
		"XMLSchemaID", "xml schema id", "zipcode", "postcode",
		"addr", "address", "orderItem2Price", "order-item.price",
		"aaaaaa", "ababab", "bababa", "İstanbul", "istanbul",
		"ﬀoo", "ffoo", "a\tb", "\t", "\n", "née", "nee",
		long, long + "x", longer, uni, uniLong, uniLong + "ß",
	}
}

// TestKernelParity requires exact float64 equality between every
// compiled kernel and its reference metric across the corpus.
func TestKernelParity(t *testing.T) {
	corpus := parityCorpus()
	for name, m := range parityMetrics(t) {
		k := NewKernel(m)
		sess := k.Session()
		for _, a := range corpus {
			for _, b := range corpus {
				got := sess.Similarity(a, b)
				want := m.Similarity(a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(%q, %q): kernel %v (%x) != reference %v (%x)",
						name, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		sess.Close()
	}
}

// TestMyersMatchesDP cross-checks all three bit-parallel variants
// against the reference DP, pinning the word-boundary lengths.
func TestMyersMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabets := [][]rune{
		[]rune("ab"),
		[]rune("abcde"),
		[]rune("abcdefghijklmnopqrstuvwxyz0123456789"),
		[]rune("αβγδε漢字#"),
	}
	lengths := []int{0, 1, 2, 7, 31, 63, 64, 65, 100, 127, 128, 129, 200}
	randStr := func(n int, alpha []rune) string {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(rs)
	}
	s := newScratch()
	for _, alpha := range alphabets {
		for _, la := range lengths {
			for _, lb := range lengths {
				a, b := randStr(la, alpha), randStr(lb, alpha)
				ra, rb := []rune(a), []rune(b)
				ascii := true
				for _, r := range ra {
					if r >= 128 {
						ascii = false
					}
				}
				got := s.myersDistance(ra, rb, ascii)
				want := Levenshtein(a, b)
				if got != want {
					t.Fatalf("myersDistance(%q, %q) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
}

// TestKernelZeroAlloc pins the warm batched path at zero heap
// allocations per scored pair for the edit and token families (and the
// full default metric, which composes both).
func TestKernelZeroAlloc(t *testing.T) {
	pairs := [][2]string{
		{"customerName", "client_name"},
		{"XMLSchemaID", "order-item.price"},
		{strings.Repeat("abcdef_", 12) + "tail", strings.Repeat("schemaElement", 12)},
		{"ünïcødé-Ératosthène", strings.Repeat("Ωμέγα", 30)},
	}
	for _, name := range []string{"edit", "osa", "jaro", "jaro-winkler", "jaccard", "dice", "cosine", "trigram", "lcs", "prefix", "suffix", "default"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernel(m)
		sess := k.Session()
		// Warm: intern every profile and grow the scratch buffers.
		for _, p := range pairs {
			sess.Similarity(p[0], p[1])
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, p := range pairs {
				sess.Similarity(p[0], p[1])
			}
		})
		sess.Close()
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm run, want 0", name, allocs)
		}
	}
}

// countingMetric counts Similarity invocations.
type countingMetric struct {
	calls *int
	inner Metric
}

func (c countingMetric) Similarity(a, b string) float64 {
	*c.calls++
	return c.inner.Similarity(a, b)
}
func (c countingMetric) Name() string { return "counting" }

// TestMongeElkanTokenizesOnce verifies the restructured Monge-Elkan:
// the symmetric variant equals the mean of both asymmetric directions
// exactly, and the inner metric is invoked exactly |ta|·|tb| times per
// direction — i.e. the token slices are computed once and reused, not
// re-derived inside the alignment loops.
func TestMongeElkanTokenizesOnce(t *testing.T) {
	corpus := parityCorpus()
	for _, a := range corpus {
		for _, b := range corpus {
			me := MongeElkan{}
			sym := SymMongeElkan{}
			want := (me.Similarity(a, b) + me.Similarity(b, a)) / 2
			got := sym.Similarity(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SymMongeElkan(%q, %q) = %v, want mean of directions %v", a, b, got, want)
			}
		}
	}
	calls := 0
	inner := countingMetric{calls: &calls, inner: JaroWinklerSim{}}
	a, b := "customer full name", "client_name_label"
	na, nb := len(Tokenize(a)), len(Tokenize(b))
	MongeElkan{Inner: inner}.Similarity(a, b)
	if calls != na*nb {
		t.Errorf("MongeElkan inner calls = %d, want %d", calls, na*nb)
	}
	calls = 0
	SymMongeElkan{Inner: inner}.Similarity(a, b)
	if calls != 2*na*nb {
		t.Errorf("SymMongeElkan inner calls = %d, want %d", calls, 2*na*nb)
	}
}

// TestInternerSharedTokens checks structural interning invariants the
// kernels and the candidate index rely on.
func TestInternerSharedTokens(t *testing.T) {
	in := NewInterner(DefaultSchemaSynonyms())
	p := in.Profile("customerName")
	if len(p.Toks) != 2 {
		t.Fatalf("customerName tokens = %d, want 2", len(p.Toks))
	}
	if tok := in.Profile("customer"); tok != p.Toks[0] {
		t.Errorf("token profile not shared with top-level name")
	}
	single := in.Profile("name")
	if len(single.Toks) != 1 || single.Toks[0] != single {
		t.Errorf("single-token name must reference itself")
	}
	if p.Class >= 0 {
		t.Errorf("compound name should have no whole-string synonym class")
	}
	if c := in.Profile("customer").Class; c < 0 {
		t.Errorf("dictionary word should carry a synonym class")
	}
	q := in.Profile("customerName")
	if q != p {
		t.Errorf("re-interning must return the same profile")
	}
}
