// Package topk implements a non-exhaustive matcher in the spirit of
// probabilistic top-k pruning (Theobald, Weikum & Schenkel, VLDB 2004),
// the second improvement family the paper cites. During the
// depth-first assignment the matcher projects the final cost of a
// partial mapping as
//
//	projected = cost so far + margin · (elements still unassigned)
//
// and abandons the branch when the projection exceeds the threshold δ.
// The projection is *not* admissible: a branch whose remaining elements
// would have cost less than margin each is pruned even though its
// complete mapping scores ≤ δ. The matcher therefore misses answers —
// predominantly those near the threshold — while every answer it does
// return carries the exact exhaustive score — both are read from the
// Problem's engine.Scorer-built cost tables, never from a string metric
// directly. Larger margins prune more aggressively; margin 0
// degenerates to the exhaustive system, whose search kernel
// (matching.SearchProjected) this matcher runs with its margin.
package topk

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/matching"
)

// Matcher is the aggressive-pruning system. Create with New.
type Matcher struct {
	margin float64
}

// New returns a matcher with the given per-unassigned-element cost
// projection. It returns an error for margins that are negative, NaN,
// or infinite (a NaN margin would silently disable pruning — NaN
// comparisons are always false — and break Name round-tripping).
func New(margin float64) (*Matcher, error) {
	if math.IsNaN(margin) || math.IsInf(margin, 0) || margin < 0 {
		return nil, fmt.Errorf("topk: margin %v is not a finite non-negative number", margin)
	}
	return &Matcher{margin: margin}, nil
}

// Name implements matching.Matcher: the canonical registry spec
// ("topk:0.05"), with the margin in the shortest exact decimal form so
// the name parses back to an identical matcher.
func (t *Matcher) Name() string {
	return "topk:" + strconv.FormatFloat(t.margin, 'g', -1, 64)
}

// Margin returns the pruning margin.
func (t *Matcher) Margin() float64 { return t.margin }

// Match implements matching.Matcher.
func (t *Matcher) Match(p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	return t.MatchContext(context.Background(), p, delta)
}

// MatchContext implements matching.Matcher: the depth-first assignment
// polls ctx periodically and returns ctx.Err() when cancelled.
func (t *Matcher) MatchContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	set, _, err := t.MatchStatsContext(ctx, p, delta)
	return set, err
}

// MatchStatsContext implements matching.StatsMatcher.
func (t *Matcher) MatchStatsContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, matching.SearchStats, error) {
	return matching.SearchProjected(ctx, p, delta, t.margin)
}
