// Package clustered implements the cluster-restricted non-exhaustive
// matcher — the paper authors' own efficiency technique (Smiljanić et
// al., WIRI 2006): repository elements are clustered by name
// similarity offline; at query time each personal-schema element
// selects the clusters whose medoids resemble it best, and the search
// considers only elements of selected clusters. Mappings located
// (partially) outside the selected clusters or spanning unselected
// clusters are never generated — the system is non-exhaustive, but
// every mapping it does produce carries the exhaustive system's score,
// because the restriction only removes candidates.
//
// Both the offline clustering and the online cluster selection draw
// name scores from a shared engine.Scorer; built with the same scorer
// as the matching.Problem, the index scores names exactly as the cost
// tables the matchers enumerate against.
package clustered

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matching"
	"repro/internal/stats"
	"repro/internal/xmlschema"
)

// Index is the offline clustering of a repository's element names.
// Clustering operates on distinct names (elements with equal names
// always share a cluster, and name distance is all the clustering
// sees), which keeps the distance matrix small on large repositories.
// Build it once per repository with BuildIndex and share it across
// queries.
type Index struct {
	repo *xmlschema.Repository
	// names are the distinct element names, sorted (cluster item i =
	// names[i]).
	names []string
	// clustering over the name indices.
	clustering *cluster.Clustering
	// medoidNames[c] is the representative name of cluster c.
	medoidNames []string
	// nameCluster maps a name to its cluster.
	nameCluster map[string]int
	// silhouette quality of the clustering, for reports. After an
	// incremental Apply it is the value of the last full build.
	silhouette float64
	// scorer the distance matrix was built from; matchers over this
	// index default to it so online selection shares the same cache.
	scorer engine.Scorer
	// cfg is the build configuration (Scorer resolved), kept so the
	// rebuild-threshold fallback of Apply re-runs the same build.
	cfg IndexConfig
	// nameCount is the number of repository elements carrying each
	// distinct name — the refcount incremental maintenance needs to
	// know when a name appears or vanishes.
	nameCount map[string]int
	// baseNames is the distinct-name count at the last full build;
	// drift accumulates names added+removed since then. Apply falls
	// back to a full rebuild when drift crosses the threshold.
	baseNames int
	drift     int
}

// IndexConfig parameterizes BuildIndex.
type IndexConfig struct {
	// K is the number of clusters; values < 1 default to
	// max(2, distinctNames/8).
	K int
	// Scorer supplies element-name similarities for the distance
	// matrix. Nil selects a fresh engine over
	// similarity.DefaultNameMetric; pass the problem's scorer so
	// clustering and matching evaluate the same metric.
	Scorer engine.Scorer
	// Workers bounds the worker pool building the distance matrix.
	// Values < 1 select GOMAXPROCS.
	Workers int
	// Seed drives the k-medoids initialization.
	Seed uint64
	// RebuildFraction is the drift threshold of Apply: once the names
	// added+removed since the last full build exceed this fraction of
	// the names that build clustered, Apply re-clusters from scratch
	// instead of patching membership. 0 selects DefaultRebuildFraction;
	// negative values disable the fallback (always incremental).
	RebuildFraction float64
	// ParityCheck makes every incremental Apply verify its result
	// against a from-scratch membership rebuild (Rebase) and fail
	// loudly on divergence. Intended for tests and debugging; it costs
	// one nearest-medoid pass over all names per Apply.
	ParityCheck bool
}

// DefaultRebuildFraction is the Apply drift threshold when
// IndexConfig.RebuildFraction is zero: a quarter of the clustered
// names changing since the last full build triggers re-clustering.
const DefaultRebuildFraction = 0.25

// BuildIndex clusters all distinct element names of repo.
func BuildIndex(repo *xmlschema.Repository, cfg IndexConfig) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	nameCount := countNames(repo)
	if len(nameCount) == 0 {
		return nil, fmt.Errorf("clustered: empty repository")
	}
	names := sortedNames(nameCount)

	scorer := cfg.Scorer
	if scorer == nil {
		scorer = engine.New(nil)
	}
	cfg.Scorer = scorer // rebuilds via Apply share the same engine
	k := cfg.K
	if k < 1 {
		k = len(names) / 8
		if k < 2 {
			k = 2
		}
	}
	if k > len(names) {
		k = len(names)
	}
	mat, err := cluster.NewNameMatrix(names, scorer, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("clustered: building distance matrix: %w", err)
	}
	cl, err := cluster.KMedoids(mat, k, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("clustered: clustering: %w", err)
	}
	medoidNames := make([]string, cl.K)
	for c, md := range cl.Medoids {
		medoidNames[c] = names[md]
	}
	nameCluster := make(map[string]int, len(names))
	for i, n := range names {
		nameCluster[n] = cl.Assign[i]
	}
	return &Index{
		repo:        repo,
		names:       names,
		clustering:  cl,
		medoidNames: medoidNames,
		nameCluster: nameCluster,
		silhouette:  cluster.Silhouette(mat, cl),
		scorer:      scorer,
		cfg:         cfg,
		nameCount:   nameCount,
		baseNames:   len(names),
	}, nil
}

// countNames returns the element count of every distinct name in repo.
func countNames(repo *xmlschema.Repository) map[string]int {
	counts := make(map[string]int)
	for _, s := range repo.Schemas() {
		s.Walk(func(e *xmlschema.Element) bool {
			counts[e.Name]++
			return true
		})
	}
	return counts
}

// sortedNames returns the keys of counts, sorted.
func sortedNames(counts map[string]int) []string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// K returns the number of clusters.
func (ix *Index) K() int { return ix.clustering.K }

// Scorer returns the scoring engine the index was built from.
func (ix *Index) Scorer() engine.Scorer { return ix.scorer }

// DistinctNames returns how many distinct element names were clustered.
func (ix *Index) DistinctNames() int { return len(ix.names) }

// Silhouette returns the clustering quality index in [-1, 1].
func (ix *Index) Silhouette() float64 { return ix.silhouette }

// ClusterOf returns the cluster index of ref's element name, or -1
// when the element is unknown.
func (ix *Index) ClusterOf(ref xmlschema.Ref) int {
	e := ix.repo.Resolve(ref)
	if e == nil {
		return -1
	}
	c, ok := ix.nameCluster[e.Name]
	if !ok {
		return -1
	}
	return c
}

// ClusterOfName returns the cluster of a name, or -1 when unknown.
func (ix *Index) ClusterOfName(name string) int {
	c, ok := ix.nameCluster[name]
	if !ok {
		return -1
	}
	return c
}

// Matcher is the cluster-restricted system. Create with New.
type Matcher struct {
	index *Index
	// topClusters is how many clusters each personal element selects.
	topClusters int
	scorer      engine.Scorer
}

// New returns a matcher searching only the topClusters best clusters
// per personal element. A nil scorer selects the index's own, so
// offline clustering and online cluster selection share one cache. It
// returns an error for topClusters < 1 or a nil index.
func New(index *Index, topClusters int, scorer engine.Scorer) (*Matcher, error) {
	if index == nil {
		return nil, fmt.Errorf("clustered: nil index")
	}
	if topClusters < 1 {
		return nil, fmt.Errorf("clustered: topClusters %d < 1", topClusters)
	}
	if scorer == nil {
		scorer = index.scorer
	}
	return &Matcher{index: index, topClusters: topClusters, scorer: scorer}, nil
}

// Name implements matching.Matcher: the canonical registry spec
// ("clustered:3"). The cluster count K is a property of the index the
// service resolves the spec against, not of the spec itself.
func (c *Matcher) Name() string {
	return fmt.Sprintf("clustered:%d", c.topClusters)
}

// TopClusters returns how many clusters each personal element selects.
func (c *Matcher) TopClusters() int { return c.topClusters }

// SelectedClusters returns, for one personal element name, the indices
// of the topClusters clusters whose medoid names are most similar.
func (c *Matcher) SelectedClusters(name string) []int {
	sess := engine.NewRowSession(c.scorer)
	defer sess.Close()
	return c.selectClusters(sess, name, make([]float64, len(c.index.medoidNames)))
}

// selectClusters is SelectedClusters through an open row session: one
// ScoreRow of name against every medoid into sims, then the clusters by
// descending similarity, ties by ascending cluster index.
func (c *Matcher) selectClusters(sess engine.RowSession, name string, sims []float64) []int {
	sess.ScoreRow(name, c.index.medoidNames, sims)
	order := make([]int, len(sims))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if sims[a] != sims[b] {
			return sims[a] > sims[b]
		}
		return a < b
	})
	n := min(c.topClusters, len(order))
	return order[:n:n]
}

// Match implements matching.Matcher: exhaustive enumeration restricted
// to elements of the selected clusters.
func (c *Matcher) Match(p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	return c.MatchContext(context.Background(), p, delta)
}

// MatchContext implements matching.Matcher: the restricted enumeration
// polls ctx periodically and returns ctx.Err() when cancelled.
func (c *Matcher) MatchContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	set, _, err := c.MatchStatsContext(ctx, p, delta)
	return set, err
}

// MatchStatsContext implements matching.StatsMatcher.
func (c *Matcher) MatchStatsContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, matching.SearchStats, error) {
	var st matching.SearchStats
	if p.Repo != c.index.repo {
		return nil, st, fmt.Errorf("clustered: index built for a different repository")
	}
	// Per personal element: the allowed clusters, selected once per
	// distinct name through one row session.
	allowedClusters := make([][]bool, p.M())
	byName := make(map[string][]bool, p.M())
	sess := engine.NewRowSession(c.scorer)
	sims := make([]float64, len(c.index.medoidNames))
	for _, pe := range p.Personal.Elements() {
		set, ok := byName[pe.Name]
		if !ok {
			set = make([]bool, len(sims))
			for _, cl := range c.selectClusters(sess, pe.Name, sims) {
				set[cl] = true
			}
			byName[pe.Name] = set
		}
		allowedClusters[pe.ID()] = set
	}
	sess.Close()
	var answers []matching.Answer
	for _, s := range p.Repo.Schemas() {
		schema := s
		allowed := func(pid, rid int) bool {
			e := schema.ByID(rid)
			if e == nil {
				return false
			}
			cl := c.index.ClusterOfName(e.Name)
			return cl >= 0 && allowedClusters[pid][cl]
		}
		schemaStats, err := matching.EnumerateContext(ctx, p, s, delta, allowed, func(mp matching.Mapping, score float64) {
			answers = append(answers, matching.Answer{Mapping: mp, Score: score})
		})
		st.Add(schemaStats)
		if err != nil {
			return nil, st, err
		}
	}
	return matching.NewAnswerSet(answers), st, nil
}
