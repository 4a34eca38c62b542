package matching

import (
	"repro/internal/xmlschema"
)

// candEps is the safety margin, in cost space, that every candidate
// pruning decision must clear. The enumeration prune uses
// c > delta + ThresholdEps; pruning only when a cost lower bound exceeds
// delta + candEps therefore guarantees both the filtered and the
// unfiltered run discard the same partials, keeping answer sets
// bit-identical.
const candEps = 1e-9

// CandidateFilter supplies per-pair similarity upper bounds for the
// candidate-filtered cost-table build. The canonical implementation is
// internal/candindex.Index.
type CandidateFilter interface {
	// MetricName identifies the metric the bounds are admissible for.
	// NewProblem rejects a filter whose metric differs from the
	// Scorer's: a bound for the wrong metric is not a bound at all.
	MetricName() string
	// Prepare resolves the personal-side names once and returns a
	// bounder for them, or nil when the filter cannot bound its metric
	// (the build then falls back to scoring every pair). The returned
	// bounder must be safe for concurrent use.
	Prepare(personalNames []string) CandidateBounder
}

// CandidateBounder serves similarity upper bounds for one prepared set
// of personal names against indexed repository schemas.
type CandidateBounder interface {
	// BoundRow fills out[rid] with an upper bound on the similarity of
	// personalNames[pi] and the name of element rid of s, for every
	// element id of s. It returns false when s is not the exact schema
	// object the filter indexed (stale or foreign pointer); the caller
	// must then score that schema unfiltered.
	BoundRow(pi int, s *xmlschema.Schema, out []float64) bool
}

// CandidateTableBounder is an optional CandidateBounder extension the
// table build fast-paths through: the bounder hands back a precomputed
// per-schema cost lower-bound table (lb[pi*n+rid] = max(0, 1 − bound),
// the exact values the BoundRow path would derive) together with the
// sum over personal elements of the per-row minimum. With it, a schema
// the filter skips costs one map lookup and a table copy per build
// instead of bounding every pair — the bound work amortizes across every
// problem build sharing the prepared bounder. The returned slice is owned by the bounder;
// callers must not mutate it.
type CandidateTableBounder interface {
	CandidateBounder
	SchemaLB(s *xmlschema.Schema) (lb []float64, rowMinSum float64, ok bool)
}

// CandidateStats summarizes how much of a problem's cost table the
// candidate filter proved irrelevant at the pruning horizon.
type CandidateStats struct {
	// Delta is the pruning horizon the tables were filtered at. Answers
	// at or below it are exact; above it the problem is heuristic.
	Delta float64
	// Floor is the per-pair similarity floor implied by Delta: a pair
	// scoring below it cannot appear in any answer within Delta. Values
	// ≤ 0 mean pair-level pruning is inactive at this horizon (schema-
	// level skipping may still fire).
	Floor float64
	// Pairs counts every (personal element, repository element) pair
	// across all schemas; Pruned counts those whose table entry is a
	// conservative bound instead of a computed score, including every
	// pair of a skipped schema.
	Pairs, Pruned int64
	// SkippedSchemas counts repository schemas proven to hold no answer
	// within Delta before any metric evaluation.
	SkippedSchemas int
}

// Ratio returns Pruned/Pairs, or 0 for an empty table.
func (cs CandidateStats) Ratio() float64 {
	if cs.Pairs == 0 {
		return 0
	}
	return float64(cs.Pruned) / float64(cs.Pairs)
}

// schemaCand is the per-schema candidate-filtering record a filtered
// Problem keeps alongside its cost table.
type schemaCand struct {
	// skip marks the whole schema as provably answer-free within the
	// pruning horizon: the sum over personal elements of the cheapest
	// name-cost lower bound already exceeds the budget.
	skip bool
	// pruned counts table entries holding a bound instead of a score.
	pruned int
}

// CandidateSkip reports whether schema name is provably answer-free at
// delta, so a matcher may skip it without enumerating. It only fires
// for requests within the pruning horizon; above the horizon the proof
// does not apply and every schema must be visited.
func (p *Problem) CandidateSkip(name string, delta float64) bool {
	if p.cand == nil || delta > p.candDelta+candEps {
		return false
	}
	c, ok := p.cand[name]
	return ok && c.skip
}

// ExactWithin reports whether answer sets at delta are provably
// complete and exactly scored on this problem. Unfiltered problems are
// exact everywhere; filtered problems only within their horizon.
func (p *Problem) ExactWithin(delta float64) bool {
	return p.cand == nil || delta <= p.candDelta+candEps
}

// CandidateStats aggregates the filtering record over the problem's
// current repository; ok is false for unfiltered problems.
func (p *Problem) CandidateStats() (CandidateStats, bool) {
	if p.cand == nil {
		return CandidateStats{}, false
	}
	cs := CandidateStats{Delta: p.candDelta, Floor: p.candFloor}
	for _, s := range p.Repo.Schemas() {
		c, ok := p.cand[s.Name]
		if !ok {
			continue
		}
		cs.Pairs += int64(p.m * s.Len())
		cs.Pruned += int64(c.pruned)
		if c.skip {
			cs.SkippedSchemas++
		}
	}
	return cs, true
}
