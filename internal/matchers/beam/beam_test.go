package beam

import (
	"testing"

	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// tinyProblem: personal a/{b} against one schema with two plausible
// homes, so beam ordering is observable.
func tinyProblem(t *testing.T) *matching.Problem {
	t.Helper()
	personal, err := xmlschema.NewSchema("p",
		xmlschema.NewElement("alpha").Add(xmlschema.NewElement("beta")))
	if err != nil {
		t.Fatal(err)
	}
	repo := xmlschema.NewRepository()
	s, err := xmlschema.NewSchema("r",
		xmlschema.NewElement("alpha").Add(
			xmlschema.NewElement("beta"),
			xmlschema.NewElement("alphax").Add(xmlschema.NewElement("betax")),
		))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(s); err != nil {
		t.Fatal(err)
	}
	prob, err := matching.NewProblem(personal, repo, matching.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestBeamKeepsBestMapping(t *testing.T) {
	prob := tinyProblem(t)
	m, err := New(1) // keep only the single best partial per level
	if err != nil {
		t.Fatal(err)
	}
	set, err := m.Match(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("beam(1) kept %d answers, want 1", set.Len())
	}
	best := set.All()[0]
	// The exact-name mapping alpha→alpha(0), beta→beta(1) must survive.
	if best.Mapping.Targets[0] != 0 || best.Mapping.Targets[1] != 1 {
		t.Errorf("beam(1) kept %v, want the exact mapping", best.Mapping)
	}
	if best.Score > 0.2 {
		t.Errorf("kept score %v, want near 0", best.Score)
	}
}

func TestBeamWidthCapsAnswersPerSchema(t *testing.T) {
	prob := tinyProblem(t)
	for _, w := range []int{1, 2, 3} {
		m, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		set, err := m.Match(prob, 2)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() > w {
			t.Errorf("beam(%d) produced %d answers from one schema", w, set.Len())
		}
	}
}

func TestBeamEqualsExhaustiveWhenWide(t *testing.T) {
	prob := tinyProblem(t)
	s1, err := matching.Exhaustive{}.Match(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Match(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s1.Len() {
		t.Errorf("infinite beam found %d, exhaustive %d", s2.Len(), s1.Len())
	}
	if err := s2.SubsetOf(s1); err != nil {
		t.Error(err)
	}
}

func TestBeamRespectsThreshold(t *testing.T) {
	prob := tinyProblem(t)
	m, err := New(100)
	if err != nil {
		t.Fatal(err)
	}
	set, err := m.Match(prob, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range set.All() {
		if a.Score > 0.05+1e-9 {
			t.Errorf("answer %v above threshold: %v", a.Mapping, a.Score)
		}
	}
}

func TestBeamEmptyRepo(t *testing.T) {
	personal, _ := xmlschema.NewSchema("p", xmlschema.NewElement("x"))
	prob, err := matching.NewProblem(personal, xmlschema.NewRepository(), matching.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(4)
	set, err := m.Match(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 0 {
		t.Errorf("empty repo produced %d answers", set.Len())
	}
}
