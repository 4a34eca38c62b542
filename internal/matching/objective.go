package matching

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/xmlschema"
)

// Config parameterizes the objective function ∆ and the search space.
// The same Config must be shared by an original system and its
// non-exhaustive improvements — the paper's technique requires that the
// improvement "uses the same objective function".
type Config struct {
	// Scorer is the scoring engine that supplies element-name
	// similarities. Nil selects a fresh memoized engine over
	// similarity.DefaultNameMetric. Thread one engine.Scorer through
	// every matcher, clusterer, and pipeline stage of an experiment so
	// they share a single memo table (see internal/engine).
	Scorer engine.Scorer
	// NameWeight and StructWeight blend the name and structure
	// components of ∆. They are normalized to sum to 1; both zero is an
	// error.
	NameWeight   float64
	StructWeight float64
	// MaxDepthStretch bounds how many tree levels an edge of the
	// personal schema may stretch across in the repository schema
	// (image of a child must be a descendant of the image of its
	// parent, at most this many levels below). It is part of the search
	// space definition SS, identical for all systems. Values < 1
	// default to 3.
	MaxDepthStretch int
	// BuildWorkers bounds the worker pool that precomputes the
	// per-schema name-cost tables in NewProblem. Values < 1 select
	// GOMAXPROCS.
	BuildWorkers int
	// Candidates, when non-nil, enables the candidate-filtered table
	// build: pairs (and whole schemas) whose similarity upper bound
	// proves them irrelevant within CandidateDelta receive a
	// conservative cost bound instead of a computed score. Answers at
	// or below CandidateDelta are provably identical to an unfiltered
	// build; above it the problem is heuristic (see Problem). The
	// filter's MetricName must equal the Scorer's.
	Candidates CandidateFilter
	// CandidateDelta is the pruning horizon; it must be > 0 when
	// Candidates is set.
	CandidateDelta float64
}

// normalized returns a validated copy with defaults applied.
func (c Config) normalized() (Config, error) {
	if c.Scorer == nil {
		c.Scorer = engine.New(nil)
	}
	if c.NameWeight < 0 || c.StructWeight < 0 {
		return c, fmt.Errorf("matching: negative weight (name=%v struct=%v)", c.NameWeight, c.StructWeight)
	}
	total := c.NameWeight + c.StructWeight
	if total == 0 {
		return c, fmt.Errorf("matching: both weights zero")
	}
	c.NameWeight /= total
	c.StructWeight /= total
	if c.MaxDepthStretch < 1 {
		c.MaxDepthStretch = 3
	}
	if c.Candidates != nil {
		if !(c.CandidateDelta > 0) {
			return c, fmt.Errorf("matching: candidate filter needs CandidateDelta > 0 (got %v)", c.CandidateDelta)
		}
		if mn := c.Candidates.MetricName(); mn != c.Scorer.MetricName() {
			return c, fmt.Errorf("matching: candidate filter bounds metric %q but scorer computes %q", mn, c.Scorer.MetricName())
		}
	}
	return c, nil
}

// DefaultConfig returns the configuration used by all experiments
// unless stated otherwise: default name metric, 0.7/0.3 name/structure
// blend, depth stretch 3.
func DefaultConfig() Config {
	return Config{NameWeight: 0.7, StructWeight: 0.3, MaxDepthStretch: 3}
}

// Problem is one schema matching problem Q: a personal schema matched
// against a repository under a fixed objective configuration. The
// constructor precomputes the per-(personal element, repository
// element) name costs through the configured engine.Scorer so that
// every matcher draws node-pair scores from one shared source;
// exhaustive search then runs on table lookups. With a memoized scorer
// shared across problems (engine.Memo), repeated names — and repeated
// problem builds under different objective weights — cost one metric
// evaluation in total.
type Problem struct {
	Personal *xmlschema.Schema
	Repo     *xmlschema.Repository

	cfg Config
	// nameCost[schemaName][p*stride+r] = 1 - sim(name_p, name_r),
	// p = personal element ID, r = repository element ID.
	nameCost map[string][]float64
	// edgeCost[d] = EdgeCost(d), the weighted structural contribution
	// of stretching one personal edge across d repository levels
	// (1 ≤ d ≤ MaxDepthStretch).
	edgeCost []float64
	m        int // personal schema size
	parent   []int
	// Candidate filtering (nil cand = unfiltered). For a filtered
	// problem, table entries the filter pruned hold a cost lower bound
	// instead of a computed score, so Score and SearchSpaceSize are only
	// exact for mappings/thresholds within candDelta; every answer the
	// matchers report at delta ≤ candDelta touches exclusively computed
	// entries and is exact.
	cand      map[string]schemaCand
	candDelta float64
	candFloor float64
}

// NewProblemContext is NewProblem with tracing: when ctx carries an
// obs span, the cost-table construction is recorded as a "cost_tables"
// child span annotated with the corpus fan-out and, for candidate-
// filtered builds, the pruning counters. The build itself is identical
// — construction stays deterministic and non-cancellable.
func NewProblemContext(ctx context.Context, personal *xmlschema.Schema, repo *xmlschema.Repository, cfg Config) (*Problem, error) {
	_, sp := obs.StartSpan(ctx, "cost_tables")
	p, err := NewProblem(personal, repo, cfg)
	if sp.Active() {
		if err == nil {
			sp.SetInt("schemas", int64(p.Repo.Len()))
			sp.SetInt("personal_elements", int64(p.m))
			if cs, ok := p.CandidateStats(); ok {
				sp.SetInt("pairs", cs.Pairs)
				sp.SetInt("pairs_pruned", cs.Pruned)
			}
		} else {
			sp.SetBool("err", true)
		}
	}
	sp.End()
	return p, err
}

// NewProblem validates the configuration and precomputes cost tables.
func NewProblem(personal *xmlschema.Schema, repo *xmlschema.Repository, cfg Config) (*Problem, error) {
	if personal == nil || personal.Len() == 0 {
		return nil, fmt.Errorf("matching: empty personal schema")
	}
	if repo == nil {
		return nil, fmt.Errorf("matching: nil repository")
	}
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	p := &Problem{
		Personal: personal,
		Repo:     repo,
		cfg:      ncfg,
		nameCost: make(map[string][]float64, repo.Len()),
		m:        personal.Len(),
	}
	p.parent = make([]int, p.m)
	for _, e := range personal.Elements() {
		if e.Parent() != nil {
			p.parent[e.ID()] = e.Parent().ID()
		} else {
			p.parent[e.ID()] = -1
		}
	}
	// Edge penalty: a direct parent-child image costs 0; every extra
	// level of stretch costs more, asymptotically 1: 1 - 1/d, weighted
	// and normalized over the m-1 personal edges.
	p.edgeCost = make([]float64, ncfg.MaxDepthStretch+1)
	if edges := p.m - 1; edges > 0 {
		for d := 1; d <= ncfg.MaxDepthStretch; d++ {
			stretch := 1 - 1/float64(d)
			p.edgeCost[d] = ncfg.StructWeight * stretch / float64(edges)
		}
	}
	// Build the per-schema name-cost tables through the scoring engine,
	// fanning schemas out over a worker pool. Each worker writes a
	// distinct schema's table; the only shared state is the scorer and
	// the candidate bounder, both concurrency-safe by contract.
	tb := p.newTableBuilder()
	if tb.bounder != nil {
		p.cand = make(map[string]schemaCand, repo.Len())
		p.candDelta = ncfg.CandidateDelta
		p.candFloor = 1 - ncfg.CandidateDelta*float64(p.m)/ncfg.NameWeight
	}
	schemas := repo.Schemas()
	tables, cands := tb.buildAll(schemas, ncfg.BuildWorkers)
	for si, s := range schemas {
		p.nameCost[s.Name] = tables[si]
		if p.cand != nil {
			p.cand[s.Name] = cands[si]
		}
	}
	return p, nil
}

// tableBuilder constructs one schema's name-cost table, filtered
// through the configured CandidateFilter when possible. A nil bounder
// (no filter, or a filter that cannot bound the metric) scores every
// pair exactly like the pre-candidate build did.
type tableBuilder struct {
	p             *Problem
	personalNames []string
	bounder       CandidateBounder
	tables        CandidateTableBounder // non-nil fast path of bounder
}

// tableWorker is one pool worker's scoring state: a row-scoring session
// into the shared scorer plus scratch reused across the worker's
// schemas. Jobs on a worker run sequentially (engine.ForEachWorker), so
// the state needs no locking.
type tableWorker struct {
	sess engine.RowSession
	keep []bool
	row  []float64
}

func (tw *tableWorker) session(sc engine.Scorer) engine.RowSession {
	if tw.sess == nil {
		tw.sess = engine.NewRowSession(sc)
	}
	return tw.sess
}

// buildAll builds every schema's table over a worker pool, one scoring
// session per worker, and closes the sessions when the fan-out drains.
func (tb *tableBuilder) buildAll(schemas []*xmlschema.Schema, workers int) ([][]float64, []schemaCand) {
	tables := make([][]float64, len(schemas))
	cands := make([]schemaCand, len(schemas))
	pool := make([]tableWorker, engine.ResolveWorkers(workers, len(schemas)))
	engine.ForEachWorker(len(schemas), workers, func(w, si int) {
		tables[si], cands[si] = tb.build(schemas[si], &pool[w])
	})
	for i := range pool {
		if pool[i].sess != nil {
			pool[i].sess.Close()
		}
	}
	return tables, cands
}

func (p *Problem) newTableBuilder() *tableBuilder {
	tb := &tableBuilder{p: p, personalNames: make([]string, p.m)}
	for _, pe := range p.Personal.Elements() {
		tb.personalNames[pe.ID()] = pe.Name
	}
	if p.cfg.Candidates != nil {
		tb.bounder = p.cfg.Candidates.Prepare(tb.personalNames)
		tb.tables, _ = tb.bounder.(CandidateTableBounder)
	}
	return tb
}

// buildFull scores every pair of the schema — the unfiltered path.
func (tb *tableBuilder) buildFull(s *xmlschema.Schema, names []string, tw *tableWorker) []float64 {
	n := len(names)
	table := make([]float64, tb.p.m*n)
	sess := tw.session(tb.p.cfg.Scorer)
	for pi, pn := range tb.personalNames {
		row := table[pi*n : (pi+1)*n]
		sess.ScoreRow(pn, names, row)
		for j, sim := range row {
			row[j] = 1 - sim
		}
	}
	return table
}

// build returns the schema's cost table and its candidate record.
//
// The filtered path is parity-safe by construction. Write
// scale = NameWeight/m, so a table entry c contributes scale·c to any
// mapping cost, and let lb[pi][rid] = max(0, 1 − bound) ≤ the true cost
// entry. Two prunes apply:
//
//   - Schema skip: if scale·Σ_pi min_rid lb[pi][rid] > Δc + ε, every
//     mapping into the schema costs more than Δc in the unfiltered
//     build too, so neither run yields an answer there and the schema
//     is never enumerated.
//   - Pair floor: if scale·lb[pi][rid] > Δc + ε, that single name-cost
//     contribution already exceeds the enumeration threshold, so every
//     matcher discards any partial containing the pair immediately —
//     in the filtered run (where the entry holds lb) and the
//     unfiltered run (where the true entry is ≥ lb) alike. Surviving
//     frontiers, and hence beam/topk results, are identical.
//
// Kept pairs are scored exactly, so answers within Δc are bit-identical
// to an unfiltered build.
func (tb *tableBuilder) build(s *xmlschema.Schema, tw *tableWorker) ([]float64, schemaCand) {
	if tb.bounder == nil {
		return tb.buildFull(s, namesOf(s), tw), schemaCand{}
	}
	if tb.tables != nil {
		// Fast path: the bounder precomputed this schema's lb table and
		// row-min sum (bit-identical to what the loop below derives), so
		// a skipped schema costs one lookup — no names, no allocation.
		// The shared slice is only copied when kept entries must be
		// overwritten with scores.
		lb, sum, ok := tb.tables.SchemaLB(s)
		if !ok {
			// Stale index after a rebase: score exhaustively — exact, and
			// therefore always parity-safe.
			return tb.buildFull(s, namesOf(s), tw), schemaCand{}
		}
		return tb.buildFromLB(s, lb, sum, true, tw)
	}
	p := tb.p
	n := s.Len()
	lb := make([]float64, p.m*n)
	if cap(tw.row) < n {
		tw.row = make([]float64, n)
	}
	row := tw.row[:n]
	sum := 0.0
	for pi := 0; pi < p.m; pi++ {
		if !tb.bounder.BoundRow(pi, s, row) {
			// The filter does not hold this exact schema object (stale
			// index after a rebase); score it exhaustively — exact, and
			// therefore always parity-safe.
			return tb.buildFull(s, namesOf(s), tw), schemaCand{}
		}
		rowMin := 2.0
		for rid := 0; rid < n; rid++ {
			c := 1 - row[rid]
			if c < 0 {
				c = 0
			}
			lb[pi*n+rid] = c
			if c < rowMin {
				rowMin = c
			}
		}
		sum += rowMin
	}
	return tb.buildFromLB(s, lb, sum, false, tw)
}

// namesOf collects a schema's element names indexed by element ID.
func namesOf(s *xmlschema.Schema) []string {
	names := make([]string, s.Len())
	for _, re := range s.Elements() {
		names[re.ID()] = re.Name
	}
	return names
}

// buildFromLB finishes a filtered table build from the schema's cost
// lower-bound table and row-min sum: decide the schema skip, then score
// the kept pairs. shared marks lb as bounder-owned; it is copied before
// any entry is overwritten (the skip path returns it as-is — the table
// is never mutated afterwards).
func (tb *tableBuilder) buildFromLB(s *xmlschema.Schema, lb []float64, sum float64, shared bool, tw *tableWorker) ([]float64, schemaCand) {
	p := tb.p
	n := s.Len()
	scale := p.cfg.NameWeight / float64(p.m)
	budget := p.candDelta + candEps
	if n == 0 || scale*sum > budget {
		return lb, schemaCand{skip: true, pruned: p.m * n}
	}
	names := namesOf(s)
	if shared {
		lb = append([]float64(nil), lb...)
	}
	if cap(tw.keep) < n {
		tw.keep = make([]bool, n)
	}
	if cap(tw.row) < n {
		tw.row = make([]float64, n)
	}
	keep, row := tw.keep[:n], tw.row[:n]
	sess := tw.session(p.cfg.Scorer)
	pruned := 0
	for pi := 0; pi < p.m; pi++ {
		base := pi * n
		kept := 0
		for rid := 0; rid < n; rid++ {
			k := scale*lb[base+rid] <= budget
			keep[rid] = k
			if k {
				kept++
			}
		}
		pruned += n - kept
		if kept == 0 {
			continue
		}
		sess.ScoreRowMasked(tb.personalNames[pi], names, row, keep)
		for rid := 0; rid < n; rid++ {
			if keep[rid] {
				lb[base+rid] = 1 - row[rid]
			}
		}
	}
	return lb, schemaCand{pruned: pruned}
}

// Rebase returns a new Problem for the same personal schema and
// configuration over repo, reusing the cost table of every schema
// shared (pointer-identical under its name) with the problem's current
// repository and building tables only for schemas new to or changed in
// repo. With copy-on-write repository snapshots this makes a
// single-schema repository update cost one schema's table build instead
// of a full NewProblem. The receiver is not modified and stays valid
// for in-flight searches against the old repository.
//
// On a candidate-filtered problem the filtering record of transferred
// schemas carries over, while changed schemas rebuild unfiltered (the
// old filter cannot hold the new schema objects); the result stays
// exact within the pruning horizon. Use RebaseCandidates with a fresh
// filter to keep changed schemas filtered as well.
func (p *Problem) Rebase(repo *xmlschema.Repository) (*Problem, error) {
	return p.RebaseCandidates(repo, nil)
}

// RebaseCandidates is Rebase with a replacement candidate filter built
// over repo, so schemas new to or changed in repo get filtered tables
// instead of exhaustive ones. A nil filter keeps the problem's current
// filter (which safely degrades to exhaustive scoring for changed
// schemas). Passing a filter on an unfiltered problem is an error: the
// horizon the problem was built without cannot be introduced
// retroactively.
func (p *Problem) RebaseCandidates(repo *xmlschema.Repository, filter CandidateFilter) (*Problem, error) {
	if repo == nil {
		return nil, fmt.Errorf("matching: nil repository")
	}
	np := &Problem{
		Personal:  p.Personal,
		Repo:      repo,
		cfg:       p.cfg,
		nameCost:  make(map[string][]float64, repo.Len()),
		edgeCost:  p.edgeCost,
		m:         p.m,
		parent:    p.parent,
		candDelta: p.candDelta,
		candFloor: p.candFloor,
	}
	if filter != nil {
		if p.cand == nil {
			return nil, fmt.Errorf("matching: RebaseCandidates on an unfiltered problem")
		}
		if mn := filter.MetricName(); mn != p.cfg.Scorer.MetricName() {
			return nil, fmt.Errorf("matching: candidate filter bounds metric %q but scorer computes %q", mn, p.cfg.Scorer.MetricName())
		}
		np.cfg.Candidates = filter
	}
	if p.cand != nil {
		np.cand = make(map[string]schemaCand, repo.Len())
	}
	schemas := repo.Schemas()
	// Changed schemas fan out over the same worker pool NewProblem
	// uses; unchanged ones transfer their (immutable) tables directly.
	var changed []int
	for si, s := range schemas {
		if p.Repo.Schema(s.Name) == s {
			np.nameCost[s.Name] = p.nameCost[s.Name]
			if np.cand != nil {
				np.cand[s.Name] = p.cand[s.Name]
			}
		} else {
			changed = append(changed, si)
		}
	}
	if len(changed) > 0 {
		tb := np.newTableBuilder()
		changedSchemas := make([]*xmlschema.Schema, len(changed))
		for ci, si := range changed {
			changedSchemas[ci] = schemas[si]
		}
		tables, cands := tb.buildAll(changedSchemas, p.cfg.BuildWorkers)
		for ci, si := range changed {
			np.nameCost[schemas[si].Name] = tables[ci]
			if np.cand != nil {
				np.cand[schemas[si].Name] = cands[ci]
			}
		}
	}
	return np, nil
}

// Scorer returns the scoring engine the problem's cost tables were
// built from — the shared source matchers and clusterers should reuse.
func (p *Problem) Scorer() engine.Scorer { return p.cfg.Scorer }

// Config returns the problem's normalized configuration.
func (p *Problem) Config() Config { return p.cfg }

// M returns the personal schema size.
func (p *Problem) M() int { return p.m }

// ParentOf returns the pre-order ID of the parent of personal element
// id, or -1 for the root.
func (p *Problem) ParentOf(id int) int { return p.parent[id] }

// NameCost returns the normalized name dissimilarity contribution of
// assigning personal element pid to element rid of schema s: the raw
// cost divided by m and weighted.
func (p *Problem) NameCost(s *xmlschema.Schema, pid, rid int) float64 {
	return p.cfg.NameWeight * p.nameCost[s.Name][pid*s.Len()+rid] / float64(p.m)
}

// EdgeCost returns the weighted structural contribution of one personal
// edge whose images are d levels apart (1 ≤ d ≤ MaxDepthStretch).
// Out-of-range d yields +Inf semantics via a value above any threshold.
func (p *Problem) EdgeCost(d int) float64 {
	if d < 1 || d > p.cfg.MaxDepthStretch {
		return 2 // outside SS; above any normalized ∆
	}
	return p.edgeCost[d]
}

// Score computes ∆(mapping) from scratch. Matchers accumulate the same
// contributions incrementally during search; Score is the reference
// implementation used by tests to verify matcher-reported scores.
func (p *Problem) Score(m Mapping) (float64, error) {
	s := p.Repo.Schema(m.Schema)
	if s == nil {
		return 0, fmt.Errorf("matching: mapping into unknown schema %q", m.Schema)
	}
	if len(m.Targets) != p.m {
		return 0, fmt.Errorf("matching: mapping has %d targets, want %d", len(m.Targets), p.m)
	}
	total := 0.0
	for pid, rid := range m.Targets {
		if s.ByID(rid) == nil {
			return 0, fmt.Errorf("matching: target %d not in schema %q", rid, m.Schema)
		}
		total += p.NameCost(s, pid, rid)
		if par := p.parent[pid]; par >= 0 {
			child := s.ByID(rid)
			parentImg := s.ByID(m.Targets[par])
			if !child.HasAncestor(parentImg) {
				return 0, fmt.Errorf("matching: mapping violates ancestry for personal element %d", pid)
			}
			total += p.EdgeCost(child.Depth() - parentImg.Depth())
		}
	}
	return total, nil
}

// Valid reports whether m lies in the search space SS: targets in one
// known schema, injective, ancestry preserved within the depth stretch.
func (p *Problem) Valid(m Mapping) bool {
	s := p.Repo.Schema(m.Schema)
	if s == nil || len(m.Targets) != p.m {
		return false
	}
	used := make(map[int]bool, p.m)
	for pid, rid := range m.Targets {
		e := s.ByID(rid)
		if e == nil || used[rid] {
			return false
		}
		used[rid] = true
		if par := p.parent[pid]; par >= 0 {
			pe := s.ByID(m.Targets[par])
			if pe == nil || !e.HasAncestor(pe) {
				return false
			}
			if d := e.Depth() - pe.Depth(); d < 1 || d > p.cfg.MaxDepthStretch {
				return false
			}
		}
	}
	return true
}

// SearchSpaceSize counts the mappings in SS by running the exhaustive
// enumeration with an infinite threshold and counting instead of
// collecting. It is exponential in the worst case; intended for the
// small problems of the experiments.
func (p *Problem) SearchSpaceSize() int {
	n := 0
	for _, s := range p.Repo.Schemas() {
		Enumerate(p, s, 2, nil, func(Mapping, float64) { n++ })
	}
	return n
}
