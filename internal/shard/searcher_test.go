package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/xmlschema"
)

func testProblem(t *testing.T, snap *xmlschema.Snapshot, personal *xmlschema.Schema) *matching.Problem {
	t.Helper()
	prob, err := matching.NewProblem(personal, snap.Repository(), matching.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func identicalSets(t *testing.T, name string, got, want *matching.AnswerSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d answers vs %d", name, got.Len(), want.Len())
	}
	ga, wa := got.All(), want.All()
	for i := range ga {
		if !ga[i].Mapping.Equal(wa[i].Mapping) || ga[i].Score != wa[i].Score {
			t.Fatalf("%s: rank %d differs: %s@%v vs %s@%v", name, i,
				ga[i].Mapping.Key(), ga[i].Score, wa[i].Mapping.Key(), wa[i].Score)
		}
	}
}

// exhaustiveFactory builds the serial exhaustive matcher on any shard.
func exhaustiveFactory(*Shard) (matching.Matcher, error) { return matching.Exhaustive{}, nil }

// TestSearchParity: the scatter-gather union is bit-identical to the
// unsharded matcher for every matcher family, shard count, and
// strategy — including the clustered family, whose shard indexes derive
// from one global clustering.
func TestSearchParity(t *testing.T) {
	snap, sc := testSnapshot(t, 11, 30)
	prob := testProblem(t, snap, sc.Personal)
	const delta = 0.45
	ixCfg := clustered.IndexConfig{Seed: 17}

	gix, err := clustered.BuildIndex(snap.Repository(), ixCfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := beam.New(8)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := topk.New(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clustered.New(gix, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		direct  matching.Matcher
		factory func(*Shard) (matching.Matcher, error)
	}{
		{"exhaustive", matching.Exhaustive{}, exhaustiveFactory},
		{"parallel", matching.ParallelExhaustive{}, func(*Shard) (matching.Matcher, error) {
			return matching.ParallelExhaustive{Workers: 2}, nil
		}},
		{"beam:8", bm, func(*Shard) (matching.Matcher, error) { return beam.New(8) }},
		{"topk:0.05", tk, func(*Shard) (matching.Matcher, error) { return topk.New(0.05) }},
		{"clustered:2", cm, func(sh *Shard) (matching.Matcher, error) {
			ix, err := sh.Index()
			if err != nil {
				return nil, err
			}
			return clustered.New(ix, 2, sh.Scorer())
		}},
	}

	for _, tc := range cases {
		want, err := tc.direct.Match(prob, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Hash{}, Cluster{Seed: 17}} {
			for _, k := range []int{1, 2, 3, 7} {
				sr, err := NewSearcher(snap, Config{K: k, Strategy: strat, Index: ixCfg})
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := sr.Search(context.Background(), prob, delta, tc.factory)
				if err != nil {
					t.Fatalf("%s k=%d %s: %v", tc.name, k, strat.Name(), err)
				}
				identicalSets(t, fmt.Sprintf("%s/k=%d/%s", tc.name, k, strat.Name()), got, want)
				if st.Shards != k {
					t.Fatalf("stats report %d shards, want %d", st.Shards, k)
				}
				answers := 0
				for _, ps := range st.PerShard {
					answers += ps.Answers
				}
				if answers != want.Len() {
					t.Fatalf("per-shard answers sum to %d, want %d", answers, want.Len())
				}
			}
		}
	}
}

// TestSearchRejectsForeignProblem: a problem built over a different
// repository must not silently return partial answers.
func TestSearchRejectsForeignProblem(t *testing.T) {
	snap, sc := testSnapshot(t, 12, 8)
	other, osc := testSnapshot(t, 13, 8)
	sr, err := NewSearcher(snap, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = sc
	foreign := testProblem(t, other, osc.Personal)
	if _, _, err := sr.Search(context.Background(), foreign, 0.45, exhaustiveFactory); err == nil {
		t.Fatal("foreign problem accepted")
	}
}

// TestSearchCancellation: a cancelled context ends the scatter with
// ctx.Err(), a nil answer set, and all workers joined (the call
// returning is the join).
func TestSearchCancellation(t *testing.T) {
	snap, sc := testSnapshot(t, 14, 40)
	prob := testProblem(t, snap, sc.Personal)
	sr, err := NewSearcher(snap, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set, _, err := sr.Search(ctx, prob, 0.45, exhaustiveFactory)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if set != nil {
		t.Fatal("cancelled search returned a non-nil set")
	}

	// Mid-flight deadline: repeatedly searching under a shrinking
	// timeout must either finish with the full set or fail with the
	// deadline error — never a partial set.
	want, _, err := sr.Search(context.Background(), prob, 0.45, exhaustiveFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond} {
		dctx, dcancel := context.WithTimeout(context.Background(), d)
		set, _, err := sr.Search(dctx, prob, 0.45, exhaustiveFactory)
		dcancel()
		if err != nil {
			if err != context.DeadlineExceeded {
				t.Fatalf("timeout %v: err = %v", d, err)
			}
			continue
		}
		identicalSets(t, fmt.Sprintf("timeout %v", d), set, want)
	}
}

// TestSearchShardErrorPropagates: a factory error on one shard fails
// the whole search (after joining), not silently drops the shard.
func TestSearchShardErrorPropagates(t *testing.T) {
	snap, sc := testSnapshot(t, 15, 12)
	prob := testProblem(t, snap, sc.Personal)
	sr, err := NewSearcher(snap, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	_, _, err = sr.Search(context.Background(), prob, 0.45, func(sh *Shard) (matching.Matcher, error) {
		if sh.ID() == 1 {
			return nil, boom
		}
		return matching.Exhaustive{}, nil
	})
	if err == nil {
		t.Fatal("shard error swallowed")
	}
}

// TestApplyTouchesOnlyAffectedShards: after a one-schema replacement,
// exactly the shard owning that schema rebuilds; every other shard's
// sub-snapshot, scorer, and built index transfer by pointer.
func TestApplyTouchesOnlyAffectedShards(t *testing.T) {
	snap, sc := testSnapshot(t, 16, 24)
	prob := testProblem(t, snap, sc.Personal)
	sr, err := NewSearcher(snap, Config{K: 3, Index: clustered.IndexConfig{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	// Build every shard's index up front so Apply has something to carry.
	for _, sh := range sr.Shards() {
		if sh.Len() == 0 {
			continue
		}
		if _, err := sh.Index(); err != nil {
			t.Fatal(err)
		}
	}

	victim := snap.Schemas()[0]
	repl, err := snap.Schemas()[1].CloneAs(victim.Name)
	if err != nil {
		t.Fatal(err)
	}
	next, err := snap.Replace(repl)
	if err != nil {
		t.Fatal(err)
	}
	diff := xmlschema.DiffSnapshots(snap, next)
	ns, err := sr.Apply(next, diff, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := sr.Plan().ShardOf(victim.Name)
	for i, old := range sr.Shards() {
		nsh := ns.Shards()[i]
		if nsh.Scorer() != old.Scorer() {
			t.Fatalf("shard %d scorer not carried over", i)
		}
		oix, _, _ := old.ix.Built()
		nix, _, built := nsh.ix.Built()
		if i == hit {
			if nsh.Snapshot() == old.Snapshot() {
				t.Fatalf("affected shard %d kept its old sub-snapshot", i)
			}
			if old.Len() > 0 && nsh.Len() > 0 {
				if !built || nix == nil {
					t.Fatalf("affected shard %d index not patched", i)
				}
				if nix == oix {
					t.Fatalf("affected shard %d index not re-derived", i)
				}
			}
			continue
		}
		if nsh.Snapshot() != old.Snapshot() {
			t.Fatalf("unaffected shard %d rebuilt its sub-snapshot", i)
		}
		if old.Len() > 0 && (!built || nix != oix) {
			t.Fatalf("unaffected shard %d index not shared by pointer", i)
		}
	}

	// And the applied searcher agrees with one built from scratch.
	nprob, err := prob.Rebase(next.Repository())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSearcher(next, Config{K: 3, Index: clustered.IndexConfig{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ns.Search(context.Background(), nprob, 0.45, exhaustiveFactory)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Search(context.Background(), nprob, 0.45, exhaustiveFactory)
	if err != nil {
		t.Fatal(err)
	}
	identicalSets(t, "applied vs fresh", got, want)

	// Clustered searches on the applied searcher still match the
	// unsharded matcher whose index was maintained the same way the
	// serving layer maintains it: incrementally, from the pre-update
	// build (a from-scratch BuildIndex over the new repository would
	// re-cluster and is a different — equally sound — restriction).
	gix0, err := clustered.BuildIndex(snap.Repository(), clustered.IndexConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	gix, err := gix0.Apply(next.Repository(), diff)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clustered.New(gix, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cwant, err := cm.Match(nprob, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	cgot, _, err := ns.Search(context.Background(), nprob, 0.45, func(sh *Shard) (matching.Matcher, error) {
		ix, err := sh.Index()
		if err != nil {
			return nil, err
		}
		return clustered.New(ix, 2, sh.Scorer())
	})
	if err != nil {
		t.Fatal(err)
	}
	identicalSets(t, "applied clustered vs unsharded", cgot, cwant)
}

// TestApplyAddRemoveSequence: a chain of add/remove/replace diffs keeps
// the applied searcher identical to a fresh one at every step.
func TestApplyAddRemoveSequence(t *testing.T) {
	snap, sc := testSnapshot(t, 18, 16)
	sr, err := NewSearcher(snap, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	cur := snap
	for step := 0; step < 4; step++ {
		var next *xmlschema.Snapshot
		var err error
		switch step % 3 {
		case 0:
			add, cerr := cur.Schemas()[step].CloneAs(fmt.Sprintf("grown%02d", step))
			if cerr != nil {
				t.Fatal(cerr)
			}
			next, err = cur.Add(add)
		case 1:
			next, err = cur.Remove(cur.Schemas()[0].Name)
		default:
			repl, cerr := cur.Schemas()[2].CloneAs(cur.Schemas()[3].Name)
			if cerr != nil {
				t.Fatal(cerr)
			}
			next, err = cur.Replace(repl)
		}
		if err != nil {
			t.Fatal(err)
		}
		ns, err := sr.Apply(next, xmlschema.DiffSnapshots(cur, next), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prob := testProblem(t, next, sc.Personal)
		fresh, err := NewSearcher(next, Config{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ns.Search(context.Background(), prob, 0.4, exhaustiveFactory)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Search(context.Background(), prob, 0.4, exhaustiveFactory)
		if err != nil {
			t.Fatal(err)
		}
		identicalSets(t, fmt.Sprintf("step %d", step), got, want)
		sr, cur = ns, next
	}
}
