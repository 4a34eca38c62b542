package matching

import (
	"context"
	"math"

	"repro/internal/xmlschema"
)

// SchemaView is one repository schema flattened for search loops: its
// pre-order layout, its name-cost table rows and the problem's edge
// costs, so a loop indexes slices instead of looking a table up by
// schema name or walking the tree. Build one with Problem.View.
type SchemaView struct {
	// Depth and End are the schema's layout (Schema.Depths and Ends):
	// the subtree of id is the ID range [id, End[id]). Read-only.
	Depth, End []int32
	Stretch    int // MaxDepthStretch
	table      []float64
	n          int
	nw, fm     float64
	edge       []float64
}

// View returns the search view of repository schema s.
func (p *Problem) View(s *xmlschema.Schema) SchemaView {
	return SchemaView{Depth: s.Depths(), End: s.Ends(), Stretch: p.cfg.MaxDepthStretch,
		table: p.nameCost[s.Name], n: s.Len(), nw: p.cfg.NameWeight, fm: float64(p.m), edge: p.edgeCost}
}

// Row returns personal element pid's name-cost table row, indexed by
// repository element ID.
func (v *SchemaView) Row(pid int) []float64 { return v.table[pid*v.n : (pid+1)*v.n] }

// NameCost is Problem.NameCost for entry rid of a Row, in the same
// arithmetic order NameWeight·row[rid]/m.
func (v *SchemaView) NameCost(row []float64, rid int) float64 { return v.nw * row[rid] / v.fm }

// EdgeCost is Problem.EdgeCost for a stretch 1 ≤ d ≤ Stretch.
func (v *SchemaView) EdgeCost(d int) float64 { return v.edge[d] }

// EnumerateContext is the instrumented, cancellable enumeration every
// exhaustive-family matcher runs on. It generates mappings exactly like
// Enumerate and additionally honors ctx: the context is polled every
// CancelCheckMask+1 candidates (a counter test on the hot path, the
// channel read off it), and on cancellation the search unwinds
// immediately and returns ctx.Err() with the stats accumulated so far.
// Mappings already yielded stay yielded; no further yields happen after
// the context ends.
func EnumerateContext(ctx context.Context, p *Problem, s *xmlschema.Schema, delta float64, allowed func(pid, rid int) bool, yield func(Mapping, float64)) (SearchStats, error) {
	return enumerate(ctx, p, s, delta, 0, allowed, yield)
}

// SearchProjected enumerates every repository schema, abandoning a
// partial mapping once cost + margin·(elements still unassigned)
// exceeds delta. Margin 0 is the exhaustive system's admissible prune;
// a positive margin is topk's non-admissible projection, which misses
// answers but scores every answer it returns exactly.
func SearchProjected(ctx context.Context, p *Problem, delta, margin float64) (*AnswerSet, SearchStats, error) {
	var answers []Answer
	var total SearchStats
	for _, s := range p.Repo.Schemas() {
		st, err := enumerate(ctx, p, s, delta, margin, nil, func(m Mapping, score float64) {
			answers = append(answers, Answer{Mapping: m, Score: score})
		})
		total.Add(st)
		if err != nil {
			return nil, total, err
		}
	}
	return NewAnswerSet(answers), total, nil
}

// enumerate is the one depth-first search kernel (see the package doc
// for the rules that keep it bit-identical).
func enumerate(ctx context.Context, p *Problem, s *xmlschema.Schema, delta, margin float64, allowed func(pid, rid int) bool, yield func(Mapping, float64)) (SearchStats, error) {
	if p.CandidateSkip(s.Name, delta) {
		// The candidate filter proved the schema answer-free within
		// delta before any table entry existed; an unfiltered run would
		// enumerate and prune its way to the same empty yield set.
		return SearchStats{}, nil
	}
	done := ctx.Done() // nil for background contexts: checks compile to two ALU ops
	if done != nil {
		// Entry check: schemas small enough to finish between periodic
		// checks still observe cancellation once per schema.
		if err := ctx.Err(); err != nil {
			return SearchStats{}, err
		}
	}
	e := enumerator{SchemaView: p.View(s), ctx: ctx, done: done, schema: s.Name, parent: p.parent,
		margin: margin, limit: delta + 1e-12, allowed: allowed, yield: yield,
		targets: make([]int, p.m), used: make([]bool, s.Len())}
	e.assign(0, 0)
	if e.stopped {
		return e.st, ctx.Err()
	}
	return e.st, nil
}

type enumerator struct {
	SchemaView
	ctx     context.Context
	done    <-chan struct{}
	schema  string
	parent  []int
	margin  float64
	limit   float64
	allowed func(pid, rid int) bool
	yield   func(Mapping, float64)
	targets []int  // targets[pid] = image of personal element pid
	used    []bool // repository elements already imaged
	st      SearchStats
	stopped bool // the context ended mid-search
}

// assign tries every image of personal element pid in repository
// pre-order, given the images of elements 0..pid-1 (pre-order, so the
// parent's image is known) at accumulated cost.
func (e *enumerator) assign(pid int, cost float64) {
	m := len(e.targets)
	if pid == m {
		e.st.Yielded++
		e.yield(Mapping{Schema: e.schema, Targets: append([]int(nil), e.targets...)}, cost)
		return
	}
	row, depth, end, used := e.Row(pid), e.Depth, e.End, e.used
	remaining := float64(m - pid - 1)
	// The personal root may map to any element; a child maps into the
	// subtree of its parent's image, at most Stretch levels below it.
	par := e.parent[pid]
	lo, hi, pd, maxDepth := 0, len(row), 0, math.MaxInt
	if par >= 0 {
		pi := e.targets[par]
		lo, hi, pd = pi+1, int(end[pi]), int(depth[pi])
		maxDepth = pd + e.Stretch
	}
	for rid := lo; rid < hi; rid++ {
		d := int(depth[rid])
		if d > maxDepth {
			rid = int(end[rid]) - 1 // the only subtree skip
			continue
		}
		if used[rid] || (e.allowed != nil && !e.allowed(pid, rid)) {
			continue
		}
		e.st.Candidates++
		if e.done != nil && e.st.Candidates&CancelCheckMask == 0 && e.ctx.Err() != nil {
			e.stopped = true
			return
		}
		c := cost + e.NameCost(row, rid)
		if par >= 0 {
			c += e.edge[d-pd]
		}
		if c+e.margin*remaining > e.limit {
			e.st.Pruned++
			continue
		}
		used[rid] = true
		e.targets[pid] = rid
		e.assign(pid+1, c)
		used[rid] = false
		if e.stopped {
			return
		}
	}
}
