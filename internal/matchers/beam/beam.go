// Package beam implements the beam-search non-exhaustive matcher — the
// iMap-style improvement the paper cites (Dhamankar et al., SIGMOD
// 2004) as a canonical example of a system that improves efficiency
// without changing the objective function.
//
// The matcher assigns personal-schema elements level by level, keeping
// only the Width best partial mappings per repository schema after each
// level. Scores of surviving complete mappings are identical to the
// exhaustive system's (the same cost contributions accumulate); the
// search merely discards partial states, so the answer set is a subset
// of the exhaustive one — the containment the effectiveness bounds
// technique requires. All scores are drawn from the Problem's
// engine.Scorer-built cost tables, never from a string metric directly.
package beam

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// Matcher is the beam-search system. The zero value is invalid; use New.
type Matcher struct {
	width int
}

// New returns a beam matcher keeping width partial states per level.
// It returns an error for width < 1.
func New(width int) (*Matcher, error) {
	if width < 1 {
		return nil, fmt.Errorf("beam: width %d < 1", width)
	}
	return &Matcher{width: width}, nil
}

// Name implements matching.Matcher: the canonical registry spec
// ("beam:8").
func (b *Matcher) Name() string { return fmt.Sprintf("beam:%d", b.width) }

// Width returns the beam width.
func (b *Matcher) Width() int { return b.width }

// Match implements matching.Matcher.
func (b *Matcher) Match(p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	return b.MatchContext(context.Background(), p, delta)
}

// MatchContext implements matching.Matcher: the level-wise expansion
// polls ctx periodically and returns ctx.Err() when cancelled.
func (b *Matcher) MatchContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	set, _, err := b.MatchStatsContext(ctx, p, delta)
	return set, err
}

// MatchStatsContext implements matching.StatsMatcher. Candidates counts
// the partial-state expansions examined, Pruned the expansions cut by
// the threshold, Yielded the complete mappings kept; a schema
// Problem.SkipSchema passes over counts nothing.
func (b *Matcher) MatchStatsContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, matching.SearchStats, error) {
	var answers []matching.Answer
	var st matching.SearchStats
	var sel selector
	done := ctx.Done()
	for _, s := range p.Repo.Schemas() {
		if done != nil && ctx.Err() != nil {
			return nil, st, ctx.Err()
		}
		if p.SkipSchema(s, delta) {
			// Provably answer-free within delta: every frontier of this
			// schema would die before its last level. Beam takes only
			// this skip, not the kernel's bound cut: cutting states
			// inside a schema would free frontier slots and change
			// which states survive.
			continue
		}
		if err := b.matchSchema(ctx, p, s, delta, &sel, &answers, &st); err != nil {
			return nil, st, err
		}
	}
	return matching.NewAnswerSet(answers), st, nil
}

func (b *Matcher) matchSchema(ctx context.Context, p *matching.Problem, s *xmlschema.Schema, delta float64, sel *selector, out *[]matching.Answer, st *matching.SearchStats) error {
	v := p.View(s)
	limit := delta + matching.ThresholdEps
	done := ctx.Done()
	// The frontier starts as one empty state, which the root extends.
	sel.reset(b.width)
	for pid := 0; pid < p.M() && len(sel.cur.costs) > 0; pid++ {
		par := p.ParentOf(pid)
		row := v.Row(pid)
		cur := &sel.cur
		for i, cost := range cur.costs {
			targets := cur.state(i)
			// The personal root may map to any element; a child maps into
			// the subtree of its parent's image, at most Stretch below it.
			lo, hi, pd, maxDepth := 0, len(row), 0, math.MaxInt
			if par >= 0 {
				pi := targets[par]
				lo, hi, pd = pi+1, int(v.End[pi]), int(v.Depth[pi])
				maxDepth = pd + v.Stretch
			}
			for rid := lo; rid < hi; rid++ {
				d := int(v.Depth[rid])
				if d > maxDepth {
					rid = int(v.End[rid]) - 1 // skip the too-deep subtree
					continue
				}
				if slices.Contains(targets, rid) {
					continue // injectivity; descendants stay candidates
				}
				st.Candidates++
				if done != nil && st.Candidates&matching.CancelCheckMask == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				c := cost + v.NameCost(row, rid)
				if par >= 0 {
					c += v.EdgeCost(d - pd)
				}
				if c > limit {
					st.Pruned++
					continue
				}
				sel.offer(expansion{parent: i, rid: rid, cost: c})
			}
		}
		sel.advance()
	}
	// A non-empty frontier has assigned every personal element. The
	// answers outlive the reused frontier, so they get their own slab.
	slab := slices.Clone(sel.cur.targets)
	for i, cost := range sel.cur.costs {
		st.Yielded++
		lo, hi := i*sel.cur.level, (i+1)*sel.cur.level
		*out = append(*out, matching.Answer{
			Mapping: matching.Mapping{Schema: s.Name, Targets: slab[lo:hi:hi]},
			Score:   cost,
		})
	}
	return nil
}

// frontier is one level's surviving partial mappings: state i assigns
// personal elements 0..level-1 to state(i) at cost costs[i].
type frontier struct {
	level   int
	targets []int // len(costs) × level, state-major
	costs   []float64
}

func (f *frontier) state(i int) []int { return f.targets[i*f.level : (i+1)*f.level] }

// expansion is one candidate child of frontier state parent: the
// state's targets followed by rid, at cost.
type expansion struct {
	parent, rid int
	cost        float64
}

// selector keeps the width best expansions of the current frontier
// under the strict order (cost, then target sequence) that makes runs
// deterministic — distinct states have distinct targets, so no two
// expansions tie. The kept expansions form a bounded max-heap rooted at
// the worst of them, so a level costs O(expansions · log width) and only
// the survivors are materialized into the next frontier. One selector
// serves a whole search; its storage is reused throughout.
type selector struct {
	width     int
	heap      []expansion
	cur, next frontier // the level being expanded; storage for the next
}

func (s *selector) reset(width int) {
	s.width, s.heap = width, s.heap[:0]
	s.cur.level, s.cur.costs = 0, append(s.cur.costs[:0], 0)
}

func (s *selector) less(a, b expansion) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if c := slices.Compare(s.cur.state(a.parent), s.cur.state(b.parent)); c != 0 {
		return c < 0
	}
	return a.rid < b.rid
}

func (s *selector) offer(x expansion) {
	h := s.heap
	if len(h) < s.width {
		h = append(h, x)
		for i := len(h) - 1; i > 0 && s.less(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
			h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
		}
		s.heap = h
		return
	}
	if x.cost > h[0].cost || !s.less(x, h[0]) {
		return // the width kept expansions all beat it
	}
	h[0] = x
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < len(h) && s.less(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && s.less(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// advance makes the kept expansions the current frontier.
func (s *selector) advance() {
	level, n := s.cur.level+1, len(s.heap)
	next := &s.next
	next.level = level
	next.targets = slices.Grow(next.targets[:0], n*level)[:n*level]
	next.costs = next.costs[:0]
	for i, x := range s.heap {
		t := next.state(i)
		copy(t, s.cur.state(x.parent))
		t[level-1] = x.rid
		next.costs = append(next.costs, x.cost)
	}
	s.cur, s.next = s.next, s.cur
	s.heap = s.heap[:0]
}
