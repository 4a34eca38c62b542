package matching_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/matching"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/xmlschema"
)

// vocabPool is the name pool of the vocabulary parity grid: few enough
// names that repositories repeat them heavily, with non-ASCII, case and
// near-duplicate variants.
var vocabPool = []string{
	"name", "Name", "price", "prix", "straße", "STRASSE", "日付", "naïve",
	"cafe", "café", "id", "ID", "a", "ab", "数量", "emoji🙂", "item", "items",
}

// personalOnly holds names no repository of the grid carries.
var personalOnly = []string{"zzabsent", "größe", "personal-only"}

// vocabVariant is one build configuration of the grid.
type vocabVariant struct {
	sealed   bool // build the first problem over a sealed repository
	plain    bool // score through the per-pair fallback, not row sessions
	filtered bool // candidate filter that holds only some schemas
	workers  int
}

func (v vocabVariant) String() string {
	return fmt.Sprintf("sealed=%v/plain=%v/filtered=%v/workers=%d", v.sealed, v.plain, v.filtered, v.workers)
}

// vocabVariantOf decodes the low bits of b into a variant.
func vocabVariantOf(b uint8) vocabVariant {
	return vocabVariant{sealed: b&1 != 0, plain: b&2 != 0, filtered: b&4 != 0, workers: 1 + 2*int(b>>3&1)}
}

// plainScorer hides the engine's row sessions, so builds take the
// per-pair Score fallback.
type plainScorer struct{ sc *engine.KernelScorer }

func (p plainScorer) Score(a, b string) float64 { return p.sc.Score(a, b) }
func (p plainScorer) MetricName() string        { return p.sc.MetricName() }

// vocabSchema builds a random tree of size elements named from names.
func vocabSchema(rng *stats.RNG, name string, size int, names []string) *xmlschema.Schema {
	root := xmlschema.NewElement(stats.Pick(rng, names))
	nodes := []*xmlschema.Element{root}
	for len(nodes) < size {
		child := xmlschema.NewElement(stats.Pick(rng, names))
		stats.Pick(rng, nodes).Add(child)
		nodes = append(nodes, child)
	}
	s, err := xmlschema.NewSchema(name, root)
	if err != nil {
		panic(err)
	}
	return s
}

// heldFilter is a candidate filter that holds exactly the schema
// objects in held and bounds every pair trivially (similarity ≤ 1), so
// a filtered build scores every pair of a held schema and fills every
// other schema from the vocabulary as a stale one.
type heldFilter struct {
	metric string
	held   map[*xmlschema.Schema]bool
}

func (f heldFilter) MetricName() string                         { return f.metric }
func (f heldFilter) Prepare([]string) matching.CandidateBounder { return f }
func (f heldFilter) BoundRow(_ int, s *xmlschema.Schema, out []float64) bool {
	if !f.held[s] {
		return false
	}
	for i := range out {
		out[i] = 1
	}
	return true
}

// checkVocabTables builds a problem over a random repository under
// variant bits, rebases it through a chain of random snapshot
// mutations, and after every step requires every table entry to equal
// 1 - the reference metric bit for bit. Unfiltered, it also pins the
// work through the scorer's pair counter: the build scores each
// distinct personal name against each vocabulary name exactly once,
// and a rebase that changed any schema scores only the names missing
// from the vocabulary the problem last scored (a rebase that only
// removed schemas scores nothing).
func checkVocabTables(t testing.TB, seed uint64, bits uint8) {
	v := vocabVariantOf(bits)
	rng := stats.NewRNG(seed)
	names := make([]string, 2+rng.Intn(len(vocabPool)-2))
	for i, j := range rng.Perm(len(vocabPool))[:len(names)] {
		names[i] = vocabPool[j]
	}
	// Duplicate and repository-absent personal names.
	pnames := append([]string{names[0], names[0]}, personalOnly[rng.Intn(len(personalOnly))])
	personal := vocabSchema(rng, "personal", 2+rng.Intn(4), pnames)

	repo := xmlschema.NewRepository()
	for i := 0; i < 1+rng.Intn(6); i++ {
		if err := repo.Add(vocabSchema(rng, fmt.Sprintf("s%d", i), 1+rng.Intn(14), names)); err != nil {
			t.Fatal(err)
		}
	}
	var snap *xmlschema.Snapshot
	if v.sealed {
		var err error
		if snap, err = xmlschema.NewSnapshot(repo); err != nil {
			t.Fatal(err)
		}
	}

	ref := similarity.DefaultNameMetric()
	scorer := engine.New(nil)
	cfg := matching.DefaultConfig()
	cfg.BuildWorkers = v.workers
	cfg.Scorer = scorer
	if v.plain {
		cfg.Scorer = plainScorer{scorer}
	}
	if v.filtered {
		held := map[*xmlschema.Schema]bool{}
		for i, s := range repo.Schemas() {
			held[s] = i%2 == 0
		}
		cfg.Candidates, cfg.CandidateDelta = heldFilter{metric: cfg.Scorer.MetricName(), held: held}, 0.5
	}
	prob, err := matching.NewProblem(personal, repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		if snap, err = xmlschema.NewSnapshot(repo); err != nil {
			t.Fatal(err)
		}
	}

	distinct := map[string]bool{}
	for _, pe := range personal.Elements() {
		distinct[pe.Name] = true
	}
	var scored map[string]bool // the vocabulary the problem last scored
	var prevRepo *xmlschema.Repository
	wantPairs := int64(0)
	check := func(step string) {
		for _, s := range prob.Repo.Schemas() {
			view := prob.View(s)
			for _, pe := range personal.Elements() {
				row := view.Row(pe.ID())
				for _, re := range s.Elements() {
					want := 1 - ref.Similarity(pe.Name, re.Name)
					if got := row[re.ID()]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v %s: %s[%d]=%q vs personal %q: table %v, reference %v",
							v, step, s.Name, re.ID(), re.Name, pe.Name, got, want)
					}
				}
			}
		}
		changed := false
		for _, s := range prob.Repo.Schemas() {
			changed = changed || prevRepo == nil || prevRepo.Schema(s.Name) != s
		}
		prevRepo = prob.Repo
		if v.filtered {
			return
		}
		if changed {
			vocab := prob.Repo.Vocabulary()
			next := make(map[string]bool, vocab.Len())
			for _, n := range vocab.Names {
				if !scored[n] {
					wantPairs += int64(len(distinct))
				}
				next[n] = true
			}
			scored = next
		}
		if got := scorer.Stats().Misses; got != wantPairs {
			t.Fatalf("%v %s: %d pairs scored, want %d", v, step, got, wantPairs)
		}
	}
	check("build")

	next := 0
	for step := 0; step < 4; step++ {
		cur := snap.Schemas()
		var nsnap *xmlschema.Snapshot
		switch op := rng.Intn(3); {
		case op == 0 || len(cur) == 0:
			next++
			nsnap, err = snap.Add(vocabSchema(rng, fmt.Sprintf("n%d", next), 1+rng.Intn(10), append(names, fmt.Sprintf("new%d", next))))
		case op == 1:
			nsnap, err = snap.Remove(cur[rng.Intn(len(cur))].Name)
		default:
			victim := cur[rng.Intn(len(cur))].Name
			nsnap, err = snap.Replace(vocabSchema(rng, victim, 1+rng.Intn(10), append(names, "replaced")))
		}
		if err != nil {
			t.Fatal(err)
		}
		if prob, err = prob.Rebase(nsnap.Repository()); err != nil {
			t.Fatal(err)
		}
		snap = nsnap
		check(fmt.Sprintf("rebase %d", step))
	}
}

// vocabGrid is the seed grid of the parity test and the fuzz corpus:
// every variant on a handful of seeds.
func vocabGrid() (seeds []uint64, variants []uint8) {
	for s := uint64(1); s <= 6; s++ {
		seeds = append(seeds, s*0x9e3779b97f4a7c15)
	}
	for b := 0; b < 16; b++ {
		variants = append(variants, uint8(b))
	}
	return seeds, variants
}

// TestVocabTablesParity pins the vocabulary-indexed cost-table build to
// the per-cell reference across the grid.
func TestVocabTablesParity(t *testing.T) {
	seeds, variants := vocabGrid()
	for _, seed := range seeds {
		for _, b := range variants {
			t.Run(fmt.Sprintf("%x/%v", seed, vocabVariantOf(b)), func(t *testing.T) {
				checkVocabTables(t, seed, b)
			})
		}
	}
}

// FuzzVocabTables explores the same property over arbitrary seeds and
// variants.
func FuzzVocabTables(f *testing.F) {
	seeds, variants := vocabGrid()
	for _, seed := range seeds {
		for _, b := range variants {
			f.Add(seed, b)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, bits uint8) {
		checkVocabTables(t, seed, bits)
	})
}
