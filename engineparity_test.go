// Determinism guarantee of the scoring engine: every matcher must
// return bit-identical answer sets whether its problem was built over
// the memoized engine or over a plain uncached metric. This is the
// property that makes the memoized fast path a drop-in replacement —
// the paper's containment and bounds arguments all assume the
// objective function is unchanged.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
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

func assertIdenticalSets(t *testing.T, name string, cached, uncached *matching.AnswerSet) {
	t.Helper()
	if cached.Len() != uncached.Len() {
		t.Fatalf("%s: cached %d answers, uncached %d", name, cached.Len(), uncached.Len())
	}
	ca, ua := cached.All(), uncached.All()
	for i := range ca {
		if !ca[i].Mapping.Equal(ua[i].Mapping) {
			t.Fatalf("%s: rank %d maps %s (cached) vs %s (uncached)",
				name, i, ca[i].Mapping.Key(), ua[i].Mapping.Key())
		}
		if ca[i].Score != ua[i].Score {
			t.Fatalf("%s: rank %d scored %v (cached) vs %v (uncached)",
				name, i, ca[i].Score, ua[i].Score)
		}
	}
}

// TestEngineParityAllMatchers runs every matcher family on a problem
// built over the memoized engine and over the uncached baseline and
// requires identical answer sets, scores included.
func TestEngineParityAllMatchers(t *testing.T) {
	sc := parityScenario(t)
	memo := engine.New(nil)
	probCached := problemWith(t, sc, memo)
	probUncached := problemWith(t, sc, engine.NewUncached(nil))
	const delta = 0.45

	// A build scores each distinct name pair once, so the first build
	// over a fresh memo only misses, and a second build of the same
	// problem is answered entirely from the memo.
	first := memo.Stats()
	if first.Misses == 0 {
		t.Fatal("first build never missed the memo — engine not exercised")
	}
	problemWith(t, sc, memo)
	if d := memo.Stats().Sub(first); d.Misses != 0 || d.Entries != 0 {
		t.Errorf("second build on a warm memo: %d new misses, %d new entries; want 0, 0", d.Misses, d.Entries)
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
		setCached, err := m.Match(probCached, delta)
		if err != nil {
			t.Fatalf("%s cached: %v", m.Name(), err)
		}
		setUncached, err := m.Match(probUncached, delta)
		if err != nil {
			t.Fatalf("%s uncached: %v", m.Name(), err)
		}
		assertIdenticalSets(t, m.Name(), setCached, setUncached)
	}
}

// TestEngineParityClustered covers the clusterer: the index built over
// the memoized engine must restrict the search identically to one
// built over the uncached baseline.
func TestEngineParityClustered(t *testing.T) {
	sc := parityScenario(t)
	memo := engine.New(nil)
	probCached := problemWith(t, sc, memo)
	probUncached := problemWith(t, sc, engine.NewUncached(nil))

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
	assertIdenticalSets(t, "clustered", run(probCached, memo), run(probUncached, engine.NewUncached(nil)))
}

// TestEngineParityFacade extends the determinism guarantee to the
// public match façade: for every registry spec, answer sets served by
// match.Service.Match are identical to direct matcher calls on a
// hand-built problem over the same scorer — the façade adds session
// and cache management, never different answers.
func TestEngineParityFacade(t *testing.T) {
	sc := parityScenario(t)
	memo := engine.New(nil)
	prob := problemWith(t, sc, memo)
	const delta = 0.45

	svc, err := match.NewService(sc.Repo,
		match.WithScorer(memo),
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
	ix, err := clustered.BuildIndex(sc.Repo, clustered.IndexConfig{Seed: 17, Scorer: memo})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clustered.New(ix, ix.K()/6+1, memo)
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
