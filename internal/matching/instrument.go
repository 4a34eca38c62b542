package matching

import (
	"context"

	"repro/internal/xmlschema"
)

// SearchStats quantifies the work one enumeration performed — the
// efficiency side of the paper's efficiency/effectiveness trade-off.
// A schema Problem.SkipSchema passes over counts nothing in any field.
type SearchStats struct {
	// Candidates is the number of (personal element, repository
	// element) assignments examined.
	Candidates int
	// Pruned counts examined assignments cut: by the threshold prune
	// (with topk's margin), or by the table's bound (see "Search
	// kernel" in the package doc).
	Pruned int
	// Yielded counts complete mappings produced. The bound never
	// changes it.
	Yielded int
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Candidates += other.Candidates
	s.Pruned += other.Pruned
	s.Yielded += other.Yielded
}

// CancelCheckMask paces the cancellation checks in every matcher's
// search hot loop (this package's enumeration and the matchers under
// internal/matchers): ctx.Err() is consulted once every
// CancelCheckMask+1 candidates, so the per-node fast path pays one
// increment and one bitmask test, never a channel read. 1024
// candidates take microseconds, which bounds the cancellation latency
// well below any deadline a caller would set.
const CancelCheckMask = 1<<10 - 1

// EnumerateWithStats is Enumerate with work counters. The search logic
// lives in EnumerateContext; this wrapper runs it under a background
// context, where cancellation is impossible.
func EnumerateWithStats(p *Problem, s *xmlschema.Schema, delta float64, allowed func(pid, rid int) bool, yield func(Mapping, float64)) SearchStats {
	st, _ := EnumerateContext(context.Background(), p, s, delta, allowed, yield)
	return st
}

// MatchWithStats runs the exhaustive system and reports the search
// work alongside the answers.
func (Exhaustive) MatchWithStats(p *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	return Exhaustive{}.MatchStatsContext(context.Background(), p, delta)
}

// MatchStatsContext implements StatsMatcher.
func (Exhaustive) MatchStatsContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	return SearchProjected(ctx, p, delta, 0)
}
