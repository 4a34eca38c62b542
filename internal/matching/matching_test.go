package matching

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/similarity"
	"repro/internal/xmlschema"
)

// fixture builds a tiny problem:
//
//	personal:  contact { name, phone }
//	repo/s1:   customers { customer { fullname, telephone, address } }
//	repo/s2:   misc { widget { gadget } }
func fixture(t *testing.T) *Problem {
	t.Helper()
	personal, err := xmlschema.NewSchema("personal",
		xmlschema.NewElement("contact").Add(
			xmlschema.NewElement("name"),
			xmlschema.NewElement("phone"),
		))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := xmlschema.NewSchema("s1",
		xmlschema.NewElement("customers").Add(
			xmlschema.NewElement("customer").Add(
				xmlschema.NewElement("fullname"),
				xmlschema.NewElement("telephone"),
				xmlschema.NewElement("address"),
			),
		))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := xmlschema.NewSchema("s2",
		xmlschema.NewElement("misc").Add(
			xmlschema.NewElement("widget").Add(xmlschema.NewElement("gadget")),
		))
	if err != nil {
		t.Fatal(err)
	}
	repo := xmlschema.NewRepository()
	for _, s := range []*xmlschema.Schema{s1, s2} {
		if err := repo.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProblem(personal, repo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMappingKeyAndRefs(t *testing.T) {
	m := Mapping{Schema: "s1", Targets: []int{1, 2, 3}}
	if m.Key() != "s1:1,2,3" {
		t.Errorf("Key = %q", m.Key())
	}
	refs := m.Refs()
	if len(refs) != 3 || refs[0] != (xmlschema.Ref{Schema: "s1", ID: 1}) {
		t.Errorf("Refs = %v", refs)
	}
	if !m.Equal(Mapping{Schema: "s1", Targets: []int{1, 2, 3}}) {
		t.Error("Equal false negative")
	}
	if m.Equal(Mapping{Schema: "s1", Targets: []int{1, 2}}) {
		t.Error("Equal ignores length")
	}
	if m.Equal(Mapping{Schema: "s2", Targets: []int{1, 2, 3}}) {
		t.Error("Equal ignores schema")
	}
}

func TestNewProblemValidation(t *testing.T) {
	personal, _ := xmlschema.NewSchema("p", xmlschema.NewElement("r"))
	repo := xmlschema.NewRepository()
	if _, err := NewProblem(nil, repo, DefaultConfig()); err == nil {
		t.Error("nil personal should error")
	}
	if _, err := NewProblem(personal, nil, DefaultConfig()); err == nil {
		t.Error("nil repo should error")
	}
	if _, err := NewProblem(personal, repo, Config{NameWeight: -1, StructWeight: 1}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewProblem(personal, repo, Config{}); err == nil {
		t.Error("zero weights should error")
	}
}

func TestConfigNormalization(t *testing.T) {
	personal, _ := xmlschema.NewSchema("p", xmlschema.NewElement("r"))
	repo := xmlschema.NewRepository()
	p, err := NewProblem(personal, repo, Config{NameWeight: 3, StructWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if math.Abs(cfg.NameWeight-0.75) > 1e-12 || math.Abs(cfg.StructWeight-0.25) > 1e-12 {
		t.Errorf("weights = %v/%v", cfg.NameWeight, cfg.StructWeight)
	}
	if cfg.MaxDepthStretch != 3 {
		t.Errorf("default stretch = %d", cfg.MaxDepthStretch)
	}
	if cfg.Scorer == nil {
		t.Error("scorer not defaulted")
	}
}

func TestExhaustiveFindsPlantedMapping(t *testing.T) {
	p := fixture(t)
	set, err := Exhaustive{}.Match(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no answers at δ=1")
	}
	// The best answer should be customer→{fullname,telephone}.
	best := set.All()[0]
	s1 := p.Repo.Schema("s1")
	wantRoot := s1.FindByName("customer")[0].ID()
	wantName := s1.FindByName("fullname")[0].ID()
	wantPhone := s1.FindByName("telephone")[0].ID()
	want := Mapping{Schema: "s1", Targets: []int{wantRoot, wantName, wantPhone}}
	if !best.Mapping.Equal(want) {
		t.Errorf("best = %v (%.4f), want %v", best.Mapping, best.Score, want)
	}
	if best.Score > 0.4 {
		t.Errorf("best score = %v, want low", best.Score)
	}
}

func TestExhaustiveScoresMatchReference(t *testing.T) {
	p := fixture(t)
	set, err := Exhaustive{}.Match(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range set.All() {
		ref, err := p.Score(a.Mapping)
		if err != nil {
			t.Fatalf("Score(%v): %v", a.Mapping, err)
		}
		if math.Abs(ref-a.Score) > 1e-9 {
			t.Errorf("mapping %v: search score %v != reference %v", a.Mapping, a.Score, ref)
		}
		if !p.Valid(a.Mapping) {
			t.Errorf("mapping %v outside SS", a.Mapping)
		}
	}
}

func TestExhaustiveRespectsAncestryAndInjectivity(t *testing.T) {
	p := fixture(t)
	set, err := Exhaustive{}.Match(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range set.All() {
		s := p.Repo.Schema(a.Mapping.Schema)
		seen := map[int]bool{}
		for pid, rid := range a.Mapping.Targets {
			if seen[rid] {
				t.Fatalf("mapping %v not injective", a.Mapping)
			}
			seen[rid] = true
			if par := p.ParentOf(pid); par >= 0 {
				child := s.ByID(rid)
				parent := s.ByID(a.Mapping.Targets[par])
				if !child.HasAncestor(parent) {
					t.Fatalf("mapping %v breaks ancestry", a.Mapping)
				}
				if d := child.Depth() - parent.Depth(); d > p.Config().MaxDepthStretch {
					t.Fatalf("mapping %v stretches %d levels", a.Mapping, d)
				}
			}
		}
	}
}

func TestExhaustiveThresholdMonotone(t *testing.T) {
	p := fixture(t)
	full, err := Exhaustive{}.Match(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, d := range []float64{0, 0.1, 0.2, 0.4, 0.8, 2} {
		n := full.CountAt(d)
		if n < prev {
			t.Fatalf("CountAt not monotone at δ=%v", d)
		}
		prev = n
		// Matching at a lower threshold returns exactly the prefix.
		sub, err := Exhaustive{}.Match(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Len() != n {
			t.Errorf("Match(δ=%v) found %d answers, full set has %d ≤ δ", d, sub.Len(), n)
		}
		if err := sub.SubsetOf(full); err != nil {
			t.Errorf("δ=%v: %v", d, err)
		}
	}
}

func TestSearchSpaceSize(t *testing.T) {
	p := fixture(t)
	n := p.SearchSpaceSize()
	set, err := Exhaustive{}.Match(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != n {
		t.Errorf("search space %d vs exhaustive at δ=2 %d", n, set.Len())
	}
	if n == 0 {
		t.Error("search space empty")
	}
}

func TestScoreErrors(t *testing.T) {
	p := fixture(t)
	if _, err := p.Score(Mapping{Schema: "nope", Targets: []int{0, 1, 2}}); err == nil {
		t.Error("unknown schema should error")
	}
	if _, err := p.Score(Mapping{Schema: "s1", Targets: []int{0}}); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := p.Score(Mapping{Schema: "s1", Targets: []int{0, 99, 1}}); err == nil {
		t.Error("unknown target should error")
	}
	// Ancestry violation: name under misc root but phone under widget.
	if _, err := p.Score(Mapping{Schema: "s2", Targets: []int{2, 0, 1}}); err == nil {
		t.Error("ancestry violation should error")
	}
}

func TestValid(t *testing.T) {
	p := fixture(t)
	s1 := p.Repo.Schema("s1")
	cust := s1.FindByName("customer")[0].ID()
	fn := s1.FindByName("fullname")[0].ID()
	tel := s1.FindByName("telephone")[0].ID()
	good := Mapping{Schema: "s1", Targets: []int{cust, fn, tel}}
	if !p.Valid(good) {
		t.Error("planted mapping should be valid")
	}
	if p.Valid(Mapping{Schema: "s1", Targets: []int{cust, fn, fn}}) {
		t.Error("non-injective mapping should be invalid")
	}
	if p.Valid(Mapping{Schema: "zzz", Targets: []int{0, 1, 2}}) {
		t.Error("unknown schema should be invalid")
	}
	// Root of s1 mapped as child of customer: wrong direction.
	if p.Valid(Mapping{Schema: "s1", Targets: []int{fn, cust, tel}}) {
		t.Error("upward mapping should be invalid")
	}
}

func TestAnswerSetOperations(t *testing.T) {
	answers := []Answer{
		{Mapping: Mapping{Schema: "b", Targets: []int{1}}, Score: 0.2},
		{Mapping: Mapping{Schema: "a", Targets: []int{1}}, Score: 0.1},
		{Mapping: Mapping{Schema: "c", Targets: []int{1}}, Score: 0.2},
		{Mapping: Mapping{Schema: "a", Targets: []int{1}}, Score: 0.3}, // dup, worse
	}
	set := NewAnswerSet(answers)
	if set.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after dedup", set.Len())
	}
	all := set.All()
	if all[0].Mapping.Schema != "a" || all[0].Score != 0.1 {
		t.Errorf("first = %+v", all[0])
	}
	// Tie at 0.2 broken by key: b before c.
	if all[1].Mapping.Schema != "b" || all[2].Mapping.Schema != "c" {
		t.Errorf("tie order = %v, %v", all[1].Mapping, all[2].Mapping)
	}
	if set.CountAt(0.15) != 1 || set.CountAt(0.2) != 3 || set.CountAt(0) != 0 {
		t.Errorf("CountAt wrong: %d %d %d", set.CountAt(0.15), set.CountAt(0.2), set.CountAt(0))
	}
	if got := set.TopN(2); len(got) != 2 {
		t.Errorf("TopN = %d", len(got))
	}
	if got := set.TopN(99); len(got) != 3 {
		t.Errorf("TopN overflow = %d", len(got))
	}
	keys := set.Keys(0.15)
	if len(keys) != 1 || !keys["a:1"] {
		t.Errorf("Keys = %v", keys)
	}
	if set.MaxScore() != 0.2 {
		t.Errorf("MaxScore = %v", set.MaxScore())
	}
	empty := NewAnswerSet(nil)
	if empty.MaxScore() != 0 || empty.Len() != 0 {
		t.Error("empty set invariants")
	}
}

// TestNewAnswerSetTieOrder pins the served order of tied scores to
// Key() string order, not numeric target order: "s:10,…" sorts before
// "s:9,…", "s:1,2" before "s:10", and schema "a-b" before "a" (because
// '-' < ':'). The dedup keeps a repeated mapping's lower score.
func TestNewAnswerSetTieOrder(t *testing.T) {
	ans := func(schema string, score float64, targets ...int) Answer {
		return Answer{Mapping: Mapping{Schema: schema, Targets: targets}, Score: score}
	}
	set := NewAnswerSet([]Answer{
		ans("s", 0.5, 9, 1),
		ans("a", 0.25, 3),
		ans("s", 0.5, 10, 1),
		ans("s", 0.125, 10),
		ans("a-b", 0.25, 3),
		ans("s", 0.125, 1, 2),
		ans("s", 0.75, 9, 1), // repeated mapping, worse score
	})
	var got []string
	for _, a := range set.All() {
		got = append(got, fmt.Sprintf("%s@%v", a.Mapping.Key(), a.Score))
	}
	want := []string{"s:1,2@0.125", "s:10@0.125", "a-b:3@0.25", "a:3@0.25", "s:10,1@0.5", "s:9,1@0.5"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestSubsetOfDetectsViolations(t *testing.T) {
	big := NewAnswerSet([]Answer{
		{Mapping: Mapping{Schema: "a", Targets: []int{1}}, Score: 0.1},
		{Mapping: Mapping{Schema: "b", Targets: []int{1}}, Score: 0.2},
	})
	good := NewAnswerSet([]Answer{{Mapping: Mapping{Schema: "a", Targets: []int{1}}, Score: 0.1}})
	if err := good.SubsetOf(big); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
	missing := NewAnswerSet([]Answer{{Mapping: Mapping{Schema: "x", Targets: []int{1}}, Score: 0.1}})
	if err := missing.SubsetOf(big); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing answer not detected: %v", err)
	}
	rescored := NewAnswerSet([]Answer{{Mapping: Mapping{Schema: "a", Targets: []int{1}}, Score: 0.15}})
	if err := rescored.SubsetOf(big); err == nil || !strings.Contains(err.Error(), "objective") {
		t.Errorf("score mismatch not detected: %v", err)
	}
}

func TestEdgeCostShape(t *testing.T) {
	p := fixture(t)
	if p.EdgeCost(1) != 0 {
		t.Errorf("direct child cost = %v, want 0", p.EdgeCost(1))
	}
	if p.EdgeCost(2) <= p.EdgeCost(1) || p.EdgeCost(3) <= p.EdgeCost(2) {
		t.Error("edge cost should grow with stretch")
	}
	if p.EdgeCost(0) < 1 || p.EdgeCost(4) < 1 {
		t.Error("out-of-range stretch should cost above any threshold")
	}
}

func TestSingleElementPersonalSchema(t *testing.T) {
	personal, _ := xmlschema.NewSchema("p", xmlschema.NewElement("book"))
	repo := xmlschema.NewRepository()
	s, _ := xmlschema.NewSchema("r", xmlschema.NewElement("library").Add(xmlschema.NewElement("book")))
	if err := repo.Add(s); err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(personal, repo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	set, err := Exhaustive{}.Match(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every element of r is a candidate: 2 mappings.
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
	if best := set.All()[0]; best.Score != 0 {
		t.Errorf("exact name match score = %v, want 0", best.Score)
	}
}

func TestCustomMetricIsUsed(t *testing.T) {
	personal, _ := xmlschema.NewSchema("p", xmlschema.NewElement("x"))
	repo := xmlschema.NewRepository()
	s, _ := xmlschema.NewSchema("r", xmlschema.NewElement("y"))
	if err := repo.Add(s); err != nil {
		t.Fatal(err)
	}
	constant := similarity.MetricFunc{Fn: func(a, b string) float64 { return 0.25 }, Label: "const"}
	p, err := NewProblem(personal, repo, Config{Scorer: engine.NewUncached(constant), NameWeight: 1, StructWeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	set, err := Exhaustive{}.Match(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 || math.Abs(set.All()[0].Score-0.75) > 1e-12 {
		t.Errorf("custom metric ignored: %+v", set.All())
	}
}
