package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/candindex"
	"repro/internal/engine"
	"repro/internal/lazy"
	"repro/internal/matchers/clustered"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/xmlschema"
)

// Config parameterizes a Searcher.
type Config struct {
	// K is the shard count (≥ 1). Shards may be empty when K exceeds
	// the schema count; empty shards are skipped by Search.
	K int
	// Strategy partitions the schemas. Nil selects Hash{}.
	Strategy Strategy
	// Index configures the repository-wide clustering that per-shard
	// clustered indexes derive from. Use the exact IndexConfig of the
	// unsharded index a sharded clustered search must agree with.
	Index clustered.IndexConfig
	// GlobalIndex, when non-nil, supplies an already-maintained
	// repository-wide clustered index (e.g. the serving layer's
	// unsharded index) instead of the searcher building its own from
	// Index — shards then derive from the exact index unsharded
	// requests search against, and the quadratic clustering is paid
	// once. The provider's index must be over the searcher's
	// repository; a mismatched or failed provider falls back to a
	// fresh build.
	GlobalIndex func() (*clustered.Index, error)
	// GlobalCandidates, when non-nil, supplies the repository-wide
	// candidate index (the serving layer's) that per-shard candidate
	// indexes derive from, sharing its name profiles and bounder. The
	// provider's index must be over the searcher's repository; there is
	// no fresh-build fallback — a candidate index needs the scorer's
	// metric, which only the provider's owner knows — so a missing or
	// mismatched provider leaves shards without candidate indexes.
	GlobalCandidates func() (*candindex.Index, error)
	// Workers bounds the scatter fan-out (< 1 selects GOMAXPROCS,
	// capped at the number of non-empty shards).
	Workers int
}

// Searcher serves scatter-gather matching over one snapshot generation:
// a Plan, one sub-snapshot + lazily derived clustered index per shard,
// and the repository-wide clustering the shard indexes share. A
// Searcher is immutable after construction and safe for concurrent
// Search calls; Apply derives the next generation from a snapshot
// diff.
type Searcher struct {
	cfg    Config
	plan   *Plan
	snap   *xmlschema.Snapshot
	shards []*Shard

	// gix is the repository-wide clustering, adopted from
	// cfg.GlobalIndex or built on the first clustered use (Shard.Index
	// derives from it) and advanced incrementally by Apply.
	gix lazy.Cell[*clustered.Index]

	// gcand is the repository-wide candidate index, adopted from
	// cfg.GlobalCandidates on first use (Shard.CandidateIndex derives
	// from it) and advanced incrementally by Apply.
	gcand lazy.Cell[*candindex.Index]
}

// Shard is one partition of a searcher: a sub-snapshot holding only its
// schemas (pointer-shared with the full snapshot) and its derived
// clustered index.
type Shard struct {
	id    int
	owner *Searcher
	snap  *xmlschema.Snapshot

	ix   lazy.Cell[*clustered.Index]
	cand lazy.Cell[*candindex.Index]
}

// ID returns the shard's index in [0, K).
func (sh *Shard) ID() int { return sh.id }

// Snapshot returns the shard's sub-snapshot.
func (sh *Shard) Snapshot() *xmlschema.Snapshot { return sh.snap }

// Repository returns the shard's sub-repository.
func (sh *Shard) Repository() *xmlschema.Repository { return sh.snap.Repository() }

// Len returns the number of schemas in the shard.
func (sh *Shard) Len() int { return sh.snap.Len() }

// Scorer returns the shard's scoring engine: the searcher's one
// scorer, which the global clustering was built from too.
func (sh *Shard) Scorer() engine.Scorer { return sh.owner.cfg.Index.Scorer }

// Index returns the shard's clustered index, derived on first use from
// the searcher's repository-wide clustering (so every shard restricts
// candidates against the same medoid set — the parity invariant).
// Empty shards have no index.
func (sh *Shard) Index() (*clustered.Index, error) {
	return sh.ix.Do(func() (*clustered.Index, error) {
		if sh.snap.Len() == 0 {
			return nil, fmt.Errorf("shard: shard %d is empty", sh.id)
		}
		gix, err := sh.owner.GlobalIndex()
		if err != nil {
			return nil, err
		}
		return gix.Derive(sh.snap.Repository())
	})
}

// CandidateIndex returns the shard's candidate index, derived on first
// use from the searcher's repository-wide one (sharing its name
// profiles and bounder, so per-shard bounds are identical to the global
// index's). Empty shards have no candidate index, and neither does a
// searcher without a healthy GlobalCandidates provider.
func (sh *Shard) CandidateIndex() (*candindex.Index, error) {
	return sh.cand.Do(func() (*candindex.Index, error) {
		if sh.snap.Len() == 0 {
			return nil, fmt.Errorf("shard: shard %d is empty", sh.id)
		}
		gc, err := sh.owner.GlobalCandidates()
		if err != nil {
			return nil, err
		}
		return gc.Derive(sh.snap.Repository())
	})
}

// NewSearcher partitions snap into cfg.K shards and returns a searcher
// over them. Partitioning is the only eager work; per-shard indexes and
// the global clustering are built on first clustered use.
func NewSearcher(snap *xmlschema.Snapshot, cfg Config) (*Searcher, error) {
	if err := checkPartition(snap, cfg.K); err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		cfg.Strategy = Hash{}
	}
	plan, err := cfg.Strategy.Plan(snap, cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.Index.Scorer == nil {
		cfg.Index.Scorer = engine.New(nil)
	}
	sr := &Searcher{cfg: cfg, plan: plan, snap: snap}
	sr.shards = make([]*Shard, cfg.K)
	for i := range sr.shards {
		sh, err := sr.buildShard(i)
		if err != nil {
			return nil, err
		}
		sr.shards[i] = sh
	}
	return sr, nil
}

// buildShard filters the searcher's snapshot by its plan into shard
// i's sub-snapshot (insertion order preserved; schemas pointer-shared).
func (sr *Searcher) buildShard(i int) (*Shard, error) {
	repo := xmlschema.NewRepository()
	for _, sch := range sr.snap.Schemas() {
		if s, ok := sr.plan.ShardOf(sch.Name); ok && s == i {
			if err := repo.Add(sch); err != nil {
				return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
			}
		}
	}
	sub, err := xmlschema.NewSnapshot(repo)
	if err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	return &Shard{id: i, owner: sr, snap: sub}, nil
}

// K returns the shard count.
func (sr *Searcher) K() int { return len(sr.shards) }

// Plan returns the searcher's partitioning plan.
func (sr *Searcher) Plan() *Plan { return sr.plan }

// Snapshot returns the full snapshot the searcher partitions.
func (sr *Searcher) Snapshot() *xmlschema.Snapshot { return sr.snap }

// Shards returns the shards in id order. Callers must not modify the
// returned slice.
func (sr *Searcher) Shards() []*Shard { return sr.shards }

// GlobalIndex returns the repository-wide clustered index the shard
// indexes derive from: the cfg.GlobalIndex provider's index when it is
// healthy and over the searcher's repository, else a fresh build from
// cfg.Index.
func (sr *Searcher) GlobalIndex() (*clustered.Index, error) {
	return sr.gix.Do(func() (*clustered.Index, error) {
		if sr.cfg.GlobalIndex != nil {
			if ix, err := sr.cfg.GlobalIndex(); err == nil && ix != nil && ix.Repository() == sr.snap.Repository() {
				return ix, nil
			}
		}
		return clustered.BuildIndex(sr.snap.Repository(), sr.cfg.Index)
	})
}

// GlobalCandidates returns the repository-wide candidate index the
// per-shard candidate indexes derive from. Unlike GlobalIndex there is
// no fresh-build fallback: a candidate index is only admissible for the
// exact metric the scorer computes, which the searcher cannot know on
// its own.
func (sr *Searcher) GlobalCandidates() (*candindex.Index, error) {
	return sr.gcand.Do(func() (*candindex.Index, error) {
		if sr.cfg.GlobalCandidates != nil {
			if ix, err := sr.cfg.GlobalCandidates(); err == nil && ix != nil && ix.Repository() == sr.snap.Repository() {
				return ix, nil
			}
		}
		return nil, fmt.Errorf("shard: no global candidate index provider")
	})
}

// ShardStat is the per-shard record of one scatter-gather search.
type ShardStat struct {
	// Shard is the shard id.
	Shard int
	// Schemas is the shard's schema count (0 for a skipped empty shard).
	Schemas int
	// Wall is the shard's end-to-end time: matcher build, problem
	// rebase, and search.
	Wall time.Duration
	// Answers is the shard's answer count.
	Answers int
	// Search counts the shard's enumeration work (zero when the matcher
	// does not implement matching.StatsMatcher).
	Search matching.SearchStats
}

// Stats quantifies one scatter-gather search: the per-shard fan-out and
// the merge overhead.
type Stats struct {
	// Shards is the total shard count, including empty shards.
	Shards int
	// Searched counts the non-empty shards actually fanned out.
	Searched int
	// PerShard holds one record per shard, in id order.
	PerShard []ShardStat
	// Merge is the time spent unioning the per-shard answer sets after
	// the last shard finished.
	Merge time.Duration
	// Wall is the full scatter + merge time.
	Wall time.Duration
}

// MaxShardWall returns the slowest shard's wall time — the scatter
// critical path.
func (st Stats) MaxShardWall() time.Duration {
	var max time.Duration
	for _, s := range st.PerShard {
		if s.Wall > max {
			max = s.Wall
		}
	}
	return max
}

// SumShardWall returns the total per-shard work; the ratio to
// MaxShardWall is the parallel speedup the scatter achieved.
func (st Stats) SumShardWall() time.Duration {
	var sum time.Duration
	for _, s := range st.PerShard {
		sum += s.Wall
	}
	return sum
}

// SearchTotal sums the enumeration work across shards.
func (st Stats) SearchTotal() matching.SearchStats {
	var total matching.SearchStats
	for _, s := range st.PerShard {
		total.Add(s.Search)
	}
	return total
}

// Search fans prob out across the shards in parallel and merges the
// per-shard answer sets. build constructs the matcher for each shard
// (called once per non-empty shard, possibly concurrently); prob must
// be built over the searcher's repository — each shard rebases it onto
// its sub-repository, transferring cost tables by reference. The search
// honors ctx: on cancellation every shard unwinds at its next periodic
// check, all workers are joined, and ctx.Err() is returned with the
// stats accumulated so far. Any shard error cancels the remaining
// shards and is returned after the join.
func (sr *Searcher) Search(ctx context.Context, prob *matching.Problem, delta float64, build func(*Shard) (matching.Matcher, error)) (*matching.AnswerSet, Stats, error) {
	st := Stats{Shards: len(sr.shards), PerShard: make([]ShardStat, len(sr.shards))}
	if prob == nil {
		return nil, st, fmt.Errorf("shard: nil problem")
	}
	if prob.Repo != sr.snap.Repository() {
		return nil, st, fmt.Errorf("shard: problem built over a different repository")
	}
	var active []int
	for i, sh := range sr.shards {
		st.PerShard[i] = ShardStat{Shard: i, Schemas: sh.Len()}
		if sh.Len() > 0 {
			active = append(active, i)
		}
	}
	st.Searched = len(active)

	start := time.Now()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}

	workers := sr.cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(active) {
		workers = len(active)
	}
	sets := make([]*matching.AnswerSet, len(sr.shards))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				set, err := sr.searchShard(sctx, sr.shards[i], prob, delta, build, &st.PerShard[i])
				if err != nil {
					fail(err)
					// Drain so the feeder never blocks; cancelled
					// siblings unwind on their own.
					for range jobs {
					}
					return
				}
				sets[i] = set
			}
		}()
	}
	done := sctx.Done()
feed:
	for _, i := range active {
		select {
		case jobs <- i:
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		st.Wall = time.Since(start)
		return nil, st, err
	}
	if failErr != nil {
		st.Wall = time.Since(start)
		return nil, st, failErr
	}
	mergeStart := time.Now()
	merged := matching.Union(sets...)
	st.Merge = time.Since(mergeStart)
	obs.FromContext(ctx).Record("merge", mergeStart, time.Now()).
		SetInt("answers", int64(merged.Len()))
	st.Wall = time.Since(start)
	return merged, st, nil
}

// searchShard runs one shard's slice of the scatter.
func (sr *Searcher) searchShard(ctx context.Context, sh *Shard, prob *matching.Problem, delta float64, build func(*Shard) (matching.Matcher, error), rec *ShardStat) (*matching.AnswerSet, error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "shard")
	span.SetInt("shard", int64(sh.id))
	span.SetInt("schemas", int64(sh.Len()))
	defer func() {
		rec.Wall = time.Since(start)
		span.SetInt("answers", int64(rec.Answers))
		span.End()
	}()
	m, err := build(sh)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d matcher: %w", sh.id, err)
	}
	sp, err := prob.Rebase(sh.Repository())
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d rebase: %w", sh.id, err)
	}
	var set *matching.AnswerSet
	if sm, ok := m.(matching.StatsMatcher); ok {
		set, rec.Search, err = sm.MatchStatsContext(ctx, sp, delta)
	} else {
		set, err = m.MatchContext(ctx, sp, delta)
	}
	if err != nil {
		return nil, err
	}
	rec.Answers = set.Len()
	return set, nil
}
