package matching

import (
	"context"

	"repro/internal/xmlschema"
)

// Exhaustive is the original system S1: it enumerates every mapping of
// the search space with ∆ ≤ δ. Pruning is admissible only (a partial
// cost already above δ can never shrink because every contribution of
// ∆ is non-negative), so the answer set is provably complete —
// exhaustiveness is what the bounds technique assumes about S1.
//
// All node-pair scores come from the Problem's cost tables, which are
// built from the problem's engine.Scorer — the matcher never invokes a
// string metric itself, so every system sharing the Problem (and every
// Problem over a scorer of the same metric) scores pairs identically.
type Exhaustive struct{}

// Name implements Matcher.
func (Exhaustive) Name() string { return "exhaustive" }

// Match implements Matcher.
func (Exhaustive) Match(p *Problem, delta float64) (*AnswerSet, error) {
	return Exhaustive{}.MatchContext(context.Background(), p, delta)
}

// MatchContext implements Matcher: the enumeration checks ctx
// periodically and returns ctx.Err() when cancelled mid-search.
func (Exhaustive) MatchContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, error) {
	set, _, err := Exhaustive{}.MatchStatsContext(ctx, p, delta)
	return set, err
}

// Enumerate generates every valid mapping of the personal schema into
// repository schema s with total cost ≤ delta, invoking yield for each.
// Personal elements are assigned in pre-order (ID order), which
// guarantees a parent is assigned before its children.
//
// A non-nil allowed predicate restricts the candidates of personal
// element pid to repository elements rid with allowed(pid, rid) — the
// hook used by the cluster-restricted non-exhaustive matcher. Because
// restriction only removes candidates and never alters costs, any
// restricted run produces a subset of the unrestricted run with
// identical scores.
//
// For a cancellable enumeration use EnumerateContext.
func Enumerate(p *Problem, s *xmlschema.Schema, delta float64, allowed func(pid, rid int) bool, yield func(Mapping, float64)) {
	EnumerateWithStats(p, s, delta, allowed, yield)
}
