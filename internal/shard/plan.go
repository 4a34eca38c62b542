package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/xmlschema"
)

// Strategy decides which shard each repository schema lives in. A
// strategy is consulted once to build the initial Plan; routing of
// schemas added later goes through the plan, which captures whatever
// state the strategy needs, so assignment stays deterministic for the
// lifetime of a shard family.
type Strategy interface {
	// Name identifies the strategy in specs and reports ("hash",
	// "cluster").
	Name() string
	// Plan partitions the snapshot's schemas into k shards.
	Plan(snap *xmlschema.Snapshot, k int) (*Plan, error)
}

// ParseStrategy resolves a strategy spec string: "hash" (also the
// default for the empty string) or "cluster". The returned Cluster
// strategy has zero-value knobs; callers wanting a shared scorer or a
// pinned seed construct Cluster directly.
func ParseStrategy(spec string) (Strategy, error) {
	switch spec {
	case "", "hash":
		return Hash{}, nil
	case "cluster":
		return Cluster{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown strategy %q (known: hash, cluster)", spec)
	}
}

// Plan is a stable assignment of schema names to shards. Plans are
// immutable; apply derives the next plan of a lineage from a snapshot
// diff, routing only the added schemas.
type Plan struct {
	k        int
	strategy string
	assign   map[string]int
	// route assigns a schema the plan has not seen, deterministically
	// from the strategy state captured at build time.
	route func(s *xmlschema.Schema) int
}

// K returns the shard count.
func (p *Plan) K() int { return p.k }

// Strategy returns the name of the strategy that built the plan.
func (p *Plan) Strategy() string { return p.strategy }

// ShardOf returns the shard holding the named schema.
func (p *Plan) ShardOf(name string) (int, bool) {
	s, ok := p.assign[name]
	return s, ok
}

// Route returns the shard a new schema would be assigned to. It is a
// pure function of the schema and the plan's build-time state.
func (p *Plan) Route(s *xmlschema.Schema) int { return p.route(s) }

// Sizes returns how many schemas each shard holds.
func (p *Plan) Sizes() []int {
	sizes := make([]int, p.k)
	for _, s := range p.assign {
		sizes[s]++
	}
	return sizes
}

// apply derives the plan after a snapshot diff: removed schemas leave
// the assignment, added schemas are routed, replaced schemas keep their
// shard (assignment is by name).
func (p *Plan) apply(diff xmlschema.Diff) *Plan {
	if len(diff.Added) == 0 && len(diff.Removed) == 0 {
		return p
	}
	assign := make(map[string]int, len(p.assign))
	for n, s := range p.assign {
		assign[n] = s
	}
	for _, sch := range diff.Removed {
		delete(assign, sch.Name)
	}
	for _, sch := range diff.Added {
		assign[sch.Name] = p.route(sch)
	}
	return &Plan{k: p.k, strategy: p.strategy, assign: assign, route: p.route}
}

// newPlan assigns every schema of snap through route.
func newPlan(snap *xmlschema.Snapshot, k int, strategy string, route func(*xmlschema.Schema) int) *Plan {
	assign := make(map[string]int, snap.Len())
	for _, sch := range snap.Schemas() {
		assign[sch.Name] = route(sch)
	}
	return &Plan{k: k, strategy: strategy, assign: assign, route: route}
}

func checkPartition(snap *xmlschema.Snapshot, k int) error {
	if snap == nil {
		return fmt.Errorf("shard: nil snapshot")
	}
	if snap.Len() == 0 {
		return fmt.Errorf("shard: empty repository")
	}
	if k < 1 {
		return fmt.Errorf("shard: shard count %d < 1", k)
	}
	return nil
}

// Hash is the default strategy: shard = FNV-1a(schema name) mod K.
// Assignment is a pure function of the name — balanced in expectation,
// zero analysis cost, and trivially stable under snapshot churn.
type Hash struct{}

// Name implements Strategy.
func (Hash) Name() string { return "hash" }

// Plan implements Strategy.
func (Hash) Plan(snap *xmlschema.Snapshot, k int) (*Plan, error) {
	if err := checkPartition(snap, k); err != nil {
		return nil, err
	}
	route := func(s *xmlschema.Schema) int {
		h := fnv.New64a()
		h.Write([]byte(s.Name))
		return int(h.Sum64() % uint64(k))
	}
	return newPlan(snap, k, Hash{}.Name(), route), nil
}

// Cluster is the similarity-aware strategy: the repository's distinct
// element names are clustered into (at most) K groups with the same
// distance matrix + k-medoids machinery the clustered matcher's index
// uses, and each schema joins the shard whose name cluster holds the
// plurality of its elements (ties to the lowest shard). Schemas sharing
// vocabulary co-locate, which tightens each shard's name population —
// the property that makes per-shard clustered indexes more selective —
// at the price of possible shard imbalance.
type Cluster struct {
	// Scorer supplies name similarities for the distance matrix and for
	// routing names unseen at build time. Nil selects a fresh engine
	// over the default metric.
	Scorer engine.Scorer
	// Seed drives the k-medoids initialization.
	Seed uint64
	// Workers bounds the distance-matrix build pool (< 1 = GOMAXPROCS).
	Workers int
}

// Name implements Strategy.
func (Cluster) Name() string { return "cluster" }

// Plan implements Strategy.
func (c Cluster) Plan(snap *xmlschema.Snapshot, k int) (*Plan, error) {
	if err := checkPartition(snap, k); err != nil {
		return nil, err
	}
	scorer := c.Scorer
	if scorer == nil {
		scorer = engine.New(nil)
	}
	counts := make(map[string]int)
	for _, sch := range snap.Schemas() {
		sch.Walk(func(e *xmlschema.Element) bool {
			counts[e.Name]++
			return true
		})
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	kc := k
	if kc > len(names) {
		kc = len(names)
	}
	mat, err := cluster.NewNameMatrix(names, scorer, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("shard: building distance matrix: %w", err)
	}
	cl, err := cluster.KMedoids(mat, kc, stats.NewRNG(c.Seed))
	if err != nil {
		return nil, fmt.Errorf("shard: clustering names: %w", err)
	}
	nameCluster := make(map[string]int, len(names))
	for i, n := range names {
		nameCluster[n] = cl.Assign[i]
	}
	medoidNames := make([]string, cl.K)
	for ci, md := range cl.Medoids {
		medoidNames[ci] = names[md]
	}
	route := func(s *xmlschema.Schema) int {
		return voteShard(s, nameCluster, medoidNames, scorer)
	}
	return newPlan(snap, k, Cluster{}.Name(), route), nil
}

// voteShard assigns a schema to the name cluster holding the plurality
// of its elements; names unseen at clustering time vote for their
// nearest medoid's cluster, by the same package-shared assignment rule
// the clustered index uses (cluster.NearestMedoid), so routing is
// deterministic under any (possibly asymmetric) metric. Ties keep the
// lowest shard.
func voteShard(s *xmlschema.Schema, nameCluster map[string]int, medoidNames []string, sc engine.Scorer) int {
	votes := make([]int, len(medoidNames))
	s.Walk(func(e *xmlschema.Element) bool {
		c, ok := nameCluster[e.Name]
		if !ok {
			c = cluster.NearestMedoid(e.Name, medoidNames, sc)
		}
		votes[c]++
		return true
	})
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}
