package clustered

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/xmlschema"
)

// nameRepo builds a repository whose element names form two obvious
// lexical families so the clustering is predictable.
func nameRepo(t *testing.T) *xmlschema.Repository {
	t.Helper()
	repo := xmlschema.NewRepository()
	a, err := xmlschema.NewSchema("a",
		xmlschema.NewElement("customer").Add(
			xmlschema.NewElement("customername"),
			xmlschema.NewElement("customerid"),
		))
	if err != nil {
		t.Fatal(err)
	}
	b, err := xmlschema.NewSchema("b",
		xmlschema.NewElement("flight").Add(
			xmlschema.NewElement("flightno"),
			xmlschema.NewElement("flightdate"),
		))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*xmlschema.Schema{a, b} {
		if err := repo.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

func TestBuildIndexClustersNameFamilies(t *testing.T) {
	repo := nameRepo(t)
	ix, err := BuildIndex(repo, IndexConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 2 {
		t.Fatalf("K = %d", ix.K())
	}
	if ix.DistinctNames() != 6 {
		t.Errorf("DistinctNames = %d, want 6", ix.DistinctNames())
	}
	// The three customer* names must share a cluster, likewise flight*.
	cust := ix.ClusterOfName("customer")
	if ix.ClusterOfName("customername") != cust || ix.ClusterOfName("customerid") != cust {
		t.Error("customer family split across clusters")
	}
	fl := ix.ClusterOfName("flight")
	if ix.ClusterOfName("flightno") != fl || ix.ClusterOfName("flightdate") != fl {
		t.Error("flight family split across clusters")
	}
	if cust == fl {
		t.Error("both families in one cluster")
	}
	if ix.Silhouette() <= 0 {
		t.Errorf("silhouette = %v, want positive for separable families", ix.Silhouette())
	}
}

func TestClusterOfByRef(t *testing.T) {
	repo := nameRepo(t)
	ix, err := BuildIndex(repo, IndexConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := repo.Schema("a")
	ref := xmlschema.RefOf(a, a.FindByName("customername")[0])
	if got := ix.ClusterOf(ref); got != ix.ClusterOfName("customername") {
		t.Errorf("ClusterOf(ref) = %d", got)
	}
	if got := ix.ClusterOf(xmlschema.Ref{Schema: "nope", ID: 0}); got != -1 {
		t.Errorf("unknown ref cluster = %d, want -1", got)
	}
	if got := ix.ClusterOfName("unknownname"); got != -1 {
		t.Errorf("unknown name cluster = %d, want -1", got)
	}
}

func TestBuildIndexDefaultsK(t *testing.T) {
	repo := nameRepo(t)
	ix, err := BuildIndex(repo, IndexConfig{Seed: 1}) // K unset
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() < 2 || ix.K() > ix.DistinctNames() {
		t.Errorf("defaulted K = %d for %d names", ix.K(), ix.DistinctNames())
	}
	// K above the name count is clamped.
	ix2, err := BuildIndex(repo, IndexConfig{K: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix2.K() != ix2.DistinctNames() {
		t.Errorf("oversized K not clamped: %d", ix2.K())
	}
}

func TestBuildIndexEmptyRepo(t *testing.T) {
	if _, err := BuildIndex(xmlschema.NewRepository(), IndexConfig{}); err == nil {
		t.Error("empty repository should error")
	}
}

func TestSelectedClustersDeterministicOrder(t *testing.T) {
	repo := nameRepo(t)
	ix, err := BuildIndex(repo, IndexConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ix, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := m.SelectedClusters("customer")
	b := m.SelectedClusters("customer")
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Errorf("selection not deterministic: %v vs %v", a, b)
	}
	// The customer cluster must rank first for a customer query.
	if a[0] != ix.ClusterOfName("customer") {
		t.Errorf("best cluster for 'customer' = %d, want %d", a[0], ix.ClusterOfName("customer"))
	}
}

// refSelect is the per-pair selection the row session replaced: one
// Score call per medoid, sorted by descending similarity, ties by
// ascending cluster index.
func refSelect(c *Matcher, name string) []int {
	type scored struct {
		cluster int
		sim     float64
	}
	all := make([]scored, len(c.index.medoidNames))
	for i, mn := range c.index.medoidNames {
		all[i] = scored{cluster: i, sim: c.scorer.Score(name, mn)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sim != all[j].sim {
			return all[i].sim > all[j].sim
		}
		return all[i].cluster < all[j].cluster
	})
	out := make([]int, min(c.topClusters, len(all)))
	for i := range out {
		out[i] = all[i].cluster
	}
	return out
}

// TestSelectionParity pins cluster selection through one row session
// to per-pair Score: the session's similarities are bit-identical, and
// the selections (order included) equal the per-pair reference, both
// from SelectedClusters and from one session reused across names as
// MatchStatsContext does. Repository names and medoids themselves are
// queried too, so exact ties (similarity 1 and equal rows) occur.
func TestSelectionParity(t *testing.T) {
	sc, snap := applyScenario(t, 9, 60)
	ix, err := BuildIndex(snap.Repository(), IndexConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string{"", "zzz"}, ix.names...)
	for _, e := range sc.Personal.Elements() {
		names = append(names, e.Name)
	}
	for _, top := range []int{1, 3, ix.K()} {
		m, err := New(ix, top, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := engine.NewRowSession(m.scorer)
		sims := make([]float64, ix.K())
		for _, name := range names {
			want := refSelect(m, name)
			if got := m.SelectedClusters(name); !slices.Equal(got, want) {
				t.Fatalf("top %d %q: SelectedClusters %v, per-pair %v", top, name, got, want)
			}
			if got := m.selectClusters(sess, name, sims); !slices.Equal(got, want) {
				t.Fatalf("top %d %q: shared session %v, per-pair %v", top, name, got, want)
			}
			for i, mn := range ix.medoidNames {
				if s := m.scorer.Score(name, mn); math.Float64bits(sims[i]) != math.Float64bits(s) {
					t.Fatalf("%q vs medoid %q: session %v, Score %v", name, mn, sims[i], s)
				}
			}
		}
		sess.Close()
	}
}
