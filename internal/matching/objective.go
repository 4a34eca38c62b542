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
	// similarities. Nil selects a fresh engine over
	// similarity.DefaultNameMetric. Thread one engine.Scorer through
	// every matcher, clusterer, and pipeline stage of an experiment so
	// they all evaluate the same metric (see internal/engine).
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
	// BuildWorkers bounds the worker pool that scores names and fills
	// the per-schema name-cost tables in NewProblem and Rebase. Values
	// < 1 select GOMAXPROCS.
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
// exhaustive search then runs on table lookups. Each distinct name
// pair is scored once per build (see "Cost tables" in the package
// doc).
type Problem struct {
	Personal *xmlschema.Schema
	Repo     *xmlschema.Repository

	cfg Config
	// nameCost[schemaName][p*n+r] = 1 - sim(name_p, name_r),
	// p = personal element ID, r = repository element ID, n = schema
	// size. The m·n entries are followed by the table's m+1 bound
	// entries rest[0..m] (see fillBound).
	nameCost map[string][]float64
	// edgeCost[d] = EdgeCost(d), the weighted structural contribution
	// of stretching one personal edge across d repository levels
	// (1 ≤ d ≤ MaxDepthStretch).
	edgeCost []float64
	m        int // personal schema size
	parent   []int
	// pnames are the personal schema's distinct element names and
	// prow[pid] the index of element pid's name among them.
	pnames []string
	prow   []int
	// costs is the vocabulary-indexed matrix an unfiltered problem's
	// tables were filled from, kept so Rebase scores only new names.
	costs vocabCosts
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
	p.pnames, p.prow = personalRows(personal)
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
	// Build the per-schema name-cost tables (see "Cost tables" in the
	// package doc).
	tb := p.newTableBuilder()
	if tb.bounder != nil {
		p.cand = make(map[string]schemaCand, repo.Len())
		p.candDelta = ncfg.CandidateDelta
		p.candFloor = 1 - ncfg.CandidateDelta*float64(p.m)/ncfg.NameWeight
	}
	p.buildTables(tb, nil, vocabCosts{})
	return p, nil
}

// vocabCosts is a name-cost matrix over a repository vocabulary:
// cols[q*vocab.Len()+v] = 1 - sim(pnames[q], vocab.Names[v]).
type vocabCosts struct {
	vocab *xmlschema.Vocabulary
	cols  []float64
}

// column returns the position of name's column, if c holds one.
func (c vocabCosts) column(name string) (int, bool) {
	if c.vocab == nil {
		return 0, false
	}
	return c.vocab.Index(name)
}

// buildTables builds the cost tables, and on a filtered problem the
// candidate records, of the schemas at positions sel of p.Repo's
// insertion order (every schema when sel is nil). prev holds the costs
// of the problem being rebased, if any; its columns are copied instead
// of rescored.
//
// An unfiltered build scores each distinct (personal, repository) name
// pair once and fills every table from the result. A filtered build
// scores the kept pairs of each schema through the bounder; a schema
// the filter does not hold (stale index after a rebase) is filled from
// the vocabulary like an unfiltered build — exact, and therefore always
// parity-safe.
func (p *Problem) buildTables(tb *tableBuilder, sel []int, prev vocabCosts) {
	schemas := p.Repo.Schemas()
	if sel == nil {
		sel = make([]int, len(schemas))
		for i := range sel {
			sel[i] = i
		}
	}
	if tb.bounder == nil {
		p.costs = p.scoreVocab(p.Repo.Vocabulary(), nil, prev)
		p.fillTables(schemas, sel, p.costs)
		return
	}
	tables, cands, held := tb.buildAll(schemas, sel, p.cfg.BuildWorkers)
	var stale []int
	for i, si := range sel {
		if p.cand != nil {
			p.cand[schemas[si].Name] = cands[i]
		}
		if held[i] {
			p.nameCost[schemas[si].Name] = tables[i]
		} else {
			stale = append(stale, si)
		}
	}
	if len(stale) == 0 {
		return
	}
	vocab := p.Repo.Vocabulary()
	need := make([]bool, vocab.Len())
	for _, si := range stale {
		for _, v := range vocab.IDs[si] {
			need[v] = true
		}
	}
	p.fillTables(schemas, stale, p.scoreVocab(vocab, need, vocabCosts{}))
}

// scoreVocab returns the costs of the problem's distinct personal names
// against the columns of vocab that need admits (all of them when need
// is nil; the others stay zero). Columns prev holds are copied; the
// rest are scored through the configured scorer, each distinct pair
// exactly once.
func (p *Problem) scoreVocab(vocab *xmlschema.Vocabulary, need []bool, prev vocabCosts) vocabCosts {
	nq, nv := len(p.pnames), vocab.Len()
	c := vocabCosts{vocab: vocab, cols: make([]float64, nq*nv)}
	var missing []int
	for v, name := range vocab.Names {
		if need != nil && !need[v] {
			continue
		}
		if j, ok := prev.column(name); ok {
			pv := prev.vocab.Len()
			for q := 0; q < nq; q++ {
				c.cols[q*nv+v] = prev.cols[q*pv+j]
			}
			continue
		}
		missing = append(missing, v)
	}
	names := make([]string, len(missing))
	for i, v := range missing {
		names[i] = vocab.Names[v]
	}
	scored := make([]float64, nq*len(names))
	p.scoreNames(names, scored)
	for q := 0; q < nq; q++ {
		for i, v := range missing {
			c.cols[q*nv+v] = scored[q*len(names)+i]
		}
	}
	return c
}

// scoreNames writes 1 - sim(pnames[q], names[j]) into
// out[q*len(names)+j]. Column blocks fan out over the BuildWorkers
// pool, one row session per worker; a block scores every personal row
// against the same column slice, so the session resolves each column's
// profile once per block.
func (p *Problem) scoreNames(names []string, out []float64) {
	n := len(names)
	sessions := make([]engine.RowSession, engine.ResolveWorkers(p.cfg.BuildWorkers, n))
	forBlocks(n, p.cfg.BuildWorkers, func(w, lo, hi int) {
		if sessions[w] == nil {
			sessions[w] = engine.NewRowSession(p.cfg.Scorer)
		}
		for q, pn := range p.pnames {
			row := out[q*n+lo : q*n+hi]
			sessions[w].ScoreRow(pn, names[lo:hi], row)
			for j, sim := range row {
				row[j] = 1 - sim
			}
		}
	})
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
}

// fillTables builds the tables of the schemas at positions sel from c:
// entry (pid, rid) is the cost of pid's name against rid's name. The
// copy tracks each row's minimum for the table's bound.
func (p *Problem) fillTables(schemas []*xmlschema.Schema, sel []int, c vocabCosts) {
	nv := c.vocab.Len()
	tables := make([][]float64, len(sel))
	forBlocks(len(sel), p.cfg.BuildWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ids := c.vocab.IDs[sel[i]]
			n := len(ids)
			table := p.newTable(n)
			rest := table[p.m*n:]
			for pid, q := range p.prow {
				src, dst := c.cols[q*nv:(q+1)*nv], table[pid*n:(pid+1)*n]
				low := noCost
				for rid, v := range ids {
					x := src[v]
					dst[rid] = x
					low = min(low, x)
				}
				rest[pid] = low
			}
			p.fillBound(rest)
			tables[i] = table
		}
	})
	for i, si := range sel {
		p.nameCost[schemas[si].Name] = tables[i]
	}
}

// noCost starts a row-minimum scan: it is above every table entry
// (costs lie in [0, 1]), and an empty row keeps it.
const noCost = 2.0

// newTable allocates the name-cost table of an n-element schema: the
// m·n entries and, in the same allocation, the m+1 bound entries.
func (p *Problem) newTable(n int) []float64 { return make([]float64, p.m*n+p.m+1) }

// fillBound turns rest[pid], the raw minimum of table row pid, into the
// table's admissible bound: rest[pid] = Σ_{j ≥ pid} NameWeight·min_j/m
// and rest[m] = 0, summed from the last element back. It lower-bounds
// the name cost that personal elements pid..m-1 add to any mapping into
// the schema. Rounding is monotone, so NameWeight·min_j/m is exactly the
// least NameCost of row j.
func (p *Problem) fillBound(rest []float64) {
	nw, fm := p.cfg.NameWeight, float64(p.m)
	rest[p.m] = 0
	for j := p.m - 1; j >= 0; j-- {
		rest[j] = rest[j+1] + nw*rest[j]/fm
	}
}

// boundRows fills the bound of a table whose n-entry rows are final.
func (p *Problem) boundRows(table []float64, n int) {
	rest := table[p.m*n:]
	for pid := 0; pid < p.m; pid++ {
		low := noCost
		for _, x := range table[pid*n : (pid+1)*n] {
			low = min(low, x)
		}
		rest[pid] = low
	}
	p.fillBound(rest)
}

// forBlocks splits [0, n) into contiguous blocks, a few per worker of a
// pool of the given size (< 1 selects GOMAXPROCS), and runs fn(w, lo,
// hi) for each block on worker w < engine.ResolveWorkers(workers, n).
func forBlocks(n, workers int, fn func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	workers = engine.ResolveWorkers(workers, n)
	blocks := 1
	if workers > 1 {
		blocks = min(n, 4*workers)
	}
	engine.ForEachWorker(blocks, workers, func(w, b int) {
		fn(w, b*n/blocks, (b+1)*n/blocks)
	})
}

// personalRows returns the distinct element names of s in ID order of
// first occurrence and, per element ID, the index of its name.
func personalRows(s *xmlschema.Schema) ([]string, []int) {
	var names []string
	rows := make([]int, s.Len())
	seen := make(map[string]int, s.Len())
	for _, e := range s.Elements() {
		q, ok := seen[e.Name]
		if !ok {
			q = len(names)
			seen[e.Name] = q
			names = append(names, e.Name)
		}
		rows[e.ID()] = q
	}
	return names, rows
}

// tableBuilder constructs one schema's candidate-filtered name-cost
// table. Its bounder is nil when the problem has no filter or the
// filter cannot bound the metric; buildTables then takes the unfiltered
// vocabulary path.
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

// buildAll builds the filtered tables of the schemas at positions sel
// over a worker pool, one scoring session per worker, and closes the
// sessions when the fan-out drains. held[i] is false for a schema the
// filter does not hold; its table is left to the caller.
func (tb *tableBuilder) buildAll(schemas []*xmlschema.Schema, sel []int, workers int) (tables [][]float64, cands []schemaCand, held []bool) {
	tables = make([][]float64, len(sel))
	cands = make([]schemaCand, len(sel))
	held = make([]bool, len(sel))
	pool := make([]tableWorker, engine.ResolveWorkers(workers, len(sel)))
	engine.ForEachWorker(len(sel), workers, func(w, i int) {
		tables[i], cands[i], held[i] = tb.build(schemas[sel[i]], &pool[w])
	})
	for i := range pool {
		if pool[i].sess != nil {
			pool[i].sess.Close()
		}
	}
	return tables, cands, held
}

func (p *Problem) newTableBuilder() *tableBuilder {
	tb := &tableBuilder{p: p}
	if p.cfg.Candidates != nil {
		tb.personalNames = make([]string, p.m)
		for _, pe := range p.Personal.Elements() {
			tb.personalNames[pe.ID()] = pe.Name
		}
		tb.bounder = p.cfg.Candidates.Prepare(tb.personalNames)
		tb.tables, _ = tb.bounder.(CandidateTableBounder)
	}
	return tb
}

// build returns the schema's filtered cost table and its candidate
// record, or held = false when the filter does not hold this exact
// schema object (stale index after a rebase).
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
func (tb *tableBuilder) build(s *xmlschema.Schema, tw *tableWorker) (table []float64, cand schemaCand, held bool) {
	if tb.tables != nil {
		// Fast path: the bounder precomputed this schema's lb table and
		// row-min sum (bit-identical to what the loop below derives), so
		// a skipped schema costs one lookup and one copy, and no names
		// are resolved or scored for it.
		lb, sum, ok := tb.tables.SchemaLB(s)
		if !ok {
			return nil, schemaCand{}, false
		}
		table, cand = tb.buildFromLB(s, lb, sum, true, tw)
		return table, cand, true
	}
	p := tb.p
	n := s.Len()
	lb := p.newTable(n)
	if cap(tw.row) < n {
		tw.row = make([]float64, n)
	}
	row := tw.row[:n]
	sum := 0.0
	for pi := 0; pi < p.m; pi++ {
		if !tb.bounder.BoundRow(pi, s, row) {
			return nil, schemaCand{}, false
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
	table, cand = tb.buildFromLB(s, lb, sum, false, tw)
	return table, cand, true
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
// lower-bound table and row-min sum: decide the schema skip, score the
// kept pairs, and fill the table's bound from the final entries (a
// pruned entry holds its lower bound, so the bound stays admissible).
// shared marks lb as bounder-owned, m·n entries long; it is copied
// into a table of its own.
func (tb *tableBuilder) buildFromLB(s *xmlschema.Schema, lb []float64, sum float64, shared bool, tw *tableWorker) ([]float64, schemaCand) {
	p := tb.p
	n := s.Len()
	if shared {
		table := p.newTable(n)
		copy(table, lb)
		lb = table
	}
	scale := p.cfg.NameWeight / float64(p.m)
	budget := p.candDelta + candEps
	if n == 0 || scale*sum > budget {
		p.boundRows(lb, n)
		return lb, schemaCand{skip: true, pruned: p.m * n}
	}
	names := namesOf(s)
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
	p.boundRows(lb, n)
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
// Changed schemas are filled from repo's vocabulary; names the problem
// scored before are copied, not rescored. On a candidate-filtered
// problem the filtering record of transferred schemas carries over,
// while changed schemas rebuild unfiltered (the old filter cannot hold
// the new schema objects); the result stays exact within the pruning
// horizon. Use RebaseCandidates with a fresh filter to keep changed
// schemas filtered as well.
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
		pnames:    p.pnames,
		prow:      p.prow,
		costs:     p.costs,
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
	// Changed schemas build like NewProblem's, scoring only names the
	// problem has not scored before; unchanged ones transfer their
	// (immutable) tables directly.
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
		np.buildTables(np.newTableBuilder(), changed, p.costs)
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
