package matching

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelExhaustive is the exhaustive system S1 with the per-schema
// enumeration fanned out over worker goroutines. It produces exactly
// the same answer set as Exhaustive (the per-schema enumerations are
// independent and NewAnswerSet orders deterministically); only the
// wall-clock changes. Workers defaults to GOMAXPROCS when ≤ 0.
//
// The workers read the Problem's scorer-built cost tables, so they
// share no mutable state and never lock.
type ParallelExhaustive struct {
	// Workers bounds the number of concurrent schema enumerations.
	Workers int
}

// Name implements Matcher: "parallel", or "parallel:N" when a worker
// bound is set.
func (p ParallelExhaustive) Name() string {
	if p.Workers > 0 {
		return fmt.Sprintf("parallel:%d", p.Workers)
	}
	return "parallel"
}

// Match implements Matcher.
func (p ParallelExhaustive) Match(prob *Problem, delta float64) (*AnswerSet, error) {
	return p.MatchContext(context.Background(), prob, delta)
}

// MatchContext implements Matcher: on cancellation no worker claims
// another schema, every worker unwinds its enumeration at the next
// periodic check, and the call returns ctx.Err() once all workers have
// exited — no worker goroutine outlives the call.
func (p ParallelExhaustive) MatchContext(ctx context.Context, prob *Problem, delta float64) (*AnswerSet, error) {
	set, _, err := p.MatchStatsContext(ctx, prob, delta)
	return set, err
}

// MatchStatsContext implements StatsMatcher, summing the search work
// across workers.
func (p ParallelExhaustive) MatchStatsContext(ctx context.Context, prob *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	schemas := prob.Repo.Schemas()
	if workers > len(schemas) {
		workers = len(schemas)
	}
	if workers <= 1 {
		return Exhaustive{}.MatchStatsContext(ctx, prob, delta)
	}

	// Workers claim schema indexes from one counter; a schema costs an
	// atomic add, never a channel handoff, so a worker only parks when
	// the repository is exhausted.
	done := ctx.Done()
	var next atomic.Int64
	var mu sync.Mutex
	var answers []Answer
	var total SearchStats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Collect locally, merge once per worker to keep the
			// critical section short.
			var local []Answer
			var localStats SearchStats
			yield := func(m Mapping, score float64) {
				local = append(local, Answer{Mapping: m, Score: score})
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schemas) || closed(done) {
					break
				}
				st, err := EnumerateContext(ctx, prob, schemas[i], delta, nil, yield)
				localStats.Add(st)
				if err != nil {
					break // cancelled: the others stop at their next claim
				}
			}
			mu.Lock()
			answers = append(answers, local...)
			total.Add(localStats)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, total, err
	}
	return NewAnswerSet(answers), total, nil
}

// closed reports whether done is closed; a nil done never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
