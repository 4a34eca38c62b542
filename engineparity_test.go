// Determinism guarantee of the scoring engine: every matcher must
// return bit-identical answer sets whether its problem was built over
// the engine's compiled kernel (row sessions, pooled per-pair calls)
// or over the reference metric called pair by pair. This is the
// property that makes the kernel a drop-in replacement — the paper's
// containment and bounds arguments all assume the objective function
// is unchanged.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/similarity"
	"repro/internal/synth"
	"repro/match"
)

func parityScenario(t *testing.T) *synth.Scenario {
	t.Helper()
	cfg := synth.DefaultConfig(3)
	cfg.NumSchemas = 40
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func problemWith(t *testing.T, sc *synth.Scenario, scorer engine.Scorer) *matching.Problem {
	t.Helper()
	cfg := matching.DefaultConfig()
	cfg.Scorer = scorer
	prob, err := matching.NewProblem(sc.Personal, sc.Repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// metricScorer is the reference route: the metric itself, pair by
// pair, with no kernel and no row sessions.
type metricScorer struct{ m similarity.Metric }

func (r metricScorer) Score(a, b string) float64 { return r.m.Similarity(a, b) }
func (r metricScorer) MetricName() string        { return r.m.Name() }

func reference() engine.Scorer { return metricScorer{similarity.DefaultNameMetric()} }

func assertIdenticalSets(t *testing.T, name string, kernel, ref *matching.AnswerSet) {
	t.Helper()
	if kernel.Len() != ref.Len() {
		t.Fatalf("%s: kernel %d answers, reference %d", name, kernel.Len(), ref.Len())
	}
	ka, ra := kernel.All(), ref.All()
	for i := range ka {
		if !ka[i].Mapping.Equal(ra[i].Mapping) {
			t.Fatalf("%s: rank %d maps %s (kernel) vs %s (reference)",
				name, i, ka[i].Mapping.Key(), ra[i].Mapping.Key())
		}
		if ka[i].Score != ra[i].Score {
			t.Fatalf("%s: rank %d scored %v (kernel) vs %v (reference)",
				name, i, ka[i].Score, ra[i].Score)
		}
	}
}

// TestEngineParityAllMatchers runs every matcher family on a problem
// built over the engine and over the reference metric and requires
// identical answer sets, scores included. It also pins the build's
// work: an unfiltered problem scores each distinct personal name
// against each distinct repository name exactly once, every build.
func TestEngineParityAllMatchers(t *testing.T) {
	sc := parityScenario(t)
	scorer := engine.New(nil)
	probKernel := problemWith(t, sc, scorer)
	probRef := problemWith(t, sc, reference())
	const delta = 0.45

	distinct := map[string]bool{}
	for _, e := range sc.Personal.Elements() {
		distinct[e.Name] = true
	}
	want := int64(len(distinct) * sc.Repo.Vocabulary().Len())
	if got := scorer.Stats().Misses; got != want {
		t.Fatalf("first build scored %d pairs, want %d distinct personal names × %d vocabulary names",
			got, len(distinct), sc.Repo.Vocabulary().Len())
	}
	problemWith(t, sc, scorer)
	if got := scorer.Stats().Misses; got != 2*want {
		t.Errorf("second build scored %d pairs, want %d again", got-want, want)
	}
	if st := scorer.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("stateless scorer reports %d hits, %d entries", st.Hits, st.Entries)
	}

	bm, err := beam.New(32)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := topk.New(0.035)
	if err != nil {
		t.Fatal(err)
	}
	matchers := []matching.Matcher{
		matching.Exhaustive{},
		matching.ParallelExhaustive{},
		matching.ParallelExhaustive{Workers: 3},
		bm,
		tk,
	}
	for _, m := range matchers {
		setKernel, err := m.Match(probKernel, delta)
		if err != nil {
			t.Fatalf("%s kernel: %v", m.Name(), err)
		}
		setRef, err := m.Match(probRef, delta)
		if err != nil {
			t.Fatalf("%s reference: %v", m.Name(), err)
		}
		assertIdenticalSets(t, m.Name(), setKernel, setRef)
	}
}

// TestEngineParityClustered covers the clusterer: the index built over
// the engine must restrict the search identically to one built over
// the reference metric.
func TestEngineParityClustered(t *testing.T) {
	sc := parityScenario(t)
	scorer := engine.New(nil)
	probKernel := problemWith(t, sc, scorer)
	probRef := problemWith(t, sc, reference())

	run := func(p *matching.Problem, scorer engine.Scorer) *matching.AnswerSet {
		t.Helper()
		ix, err := clustered.BuildIndex(sc.Repo, clustered.IndexConfig{Seed: 17, Scorer: scorer})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := clustered.New(ix, ix.K()/6+1, scorer)
		if err != nil {
			t.Fatal(err)
		}
		set, err := cm.Match(p, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	assertIdenticalSets(t, "clustered", run(probKernel, scorer), run(probRef, reference()))
}

// TestEngineParityFacade extends the determinism guarantee to the
// public match façade: for every registry spec, answer sets served by
// match.Service.Match are identical to direct matcher calls on a
// hand-built problem over the same scorer — the façade adds session
// and cache management, never different answers.
func TestEngineParityFacade(t *testing.T) {
	sc := parityScenario(t)
	scorer := engine.New(nil)
	prob := problemWith(t, sc, scorer)
	const delta = 0.45

	svc, err := match.NewService(sc.Repo,
		match.WithScorer(scorer),
		match.WithIndexConfig(clustered.IndexConfig{Seed: 17}),
	)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := beam.New(32)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := topk.New(0.035)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := clustered.BuildIndex(sc.Repo, clustered.IndexConfig{Seed: 17, Scorer: scorer})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clustered.New(ix, ix.K()/6+1, scorer)
	if err != nil {
		t.Fatal(err)
	}
	direct := []matching.Matcher{
		matching.Exhaustive{},
		matching.ParallelExhaustive{},
		bm,
		tk,
		cm,
	}
	for _, m := range direct {
		want, err := m.Match(prob, delta)
		if err != nil {
			t.Fatalf("%s direct: %v", m.Name(), err)
		}
		res, err := svc.Match(context.Background(), match.Request{
			Personal: sc.Personal,
			Delta:    delta,
			Matcher:  m.Name(), // Name() is the canonical spec — it round-trips
		})
		if err != nil {
			t.Fatalf("%s via façade: %v", m.Name(), err)
		}
		assertIdenticalSets(t, m.Name(), res.Set, want)
	}
}
