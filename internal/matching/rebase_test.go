package matching

import (
	"testing"

	"repro/internal/xmlschema"
)

// rebaseFixture builds the matching_test fixture's problem plus a
// snapshot over its repository, so tests can derive mutated snapshots
// with structural sharing.
func rebaseFixture(t *testing.T) (*Problem, *xmlschema.Snapshot) {
	t.Helper()
	p := fixture(t)
	snap, err := xmlschema.NewSnapshot(p.Repo)
	if err != nil {
		t.Fatal(err)
	}
	return p, snap
}

// freshEqual asserts that a rebased problem answers identically to a
// problem built from scratch over the same repository.
func freshEqual(t *testing.T, rebased *Problem, repo *xmlschema.Repository) {
	t.Helper()
	fresh, err := NewProblem(rebased.Personal, repo, rebased.cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Exhaustive{}.Match(rebased, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exhaustive{}.Match(fresh, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("rebased answers %d, fresh %d", a.Len(), b.Len())
	}
	if err := a.SubsetOf(b); err != nil {
		t.Fatalf("rebased answers diverge from fresh build: %v", err)
	}
}

func TestProblemRebaseSharesUnchangedTables(t *testing.T) {
	p, snap := rebaseFixture(t)
	s3, err := xmlschema.NewSchema("s3",
		xmlschema.NewElement("people").Add(
			xmlschema.NewElement("person").Add(
				xmlschema.NewElement("name"),
				xmlschema.NewElement("phone"),
			),
		))
	if err != nil {
		t.Fatal(err)
	}
	next, err := snap.Add(s3)
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Rebase(next.Repository())
	if err != nil {
		t.Fatal(err)
	}
	// The untouched schemas transfer their cost tables by reference.
	for _, name := range []string{"s1", "s2"} {
		if len(np.nameCost[name]) == 0 || &np.nameCost[name][0] != &p.nameCost[name][0] {
			t.Errorf("schema %q cost table rebuilt instead of shared", name)
		}
	}
	if len(np.nameCost["s3"]) == 0 {
		t.Fatal("added schema has no cost table")
	}
	if p.Repo.Schema("s3") != nil {
		t.Fatal("Rebase mutated the old problem's repository")
	}
	freshEqual(t, np, next.Repository())
}

func TestProblemRebaseReplaceAndRemove(t *testing.T) {
	p, snap := rebaseFixture(t)
	// Replace s1 with a variant (same name, different content) and
	// remove s2.
	s1b, err := xmlschema.NewSchema("s1",
		xmlschema.NewElement("clients").Add(
			xmlschema.NewElement("client").Add(
				xmlschema.NewElement("clientname"),
				xmlschema.NewElement("phone"),
			),
		))
	if err != nil {
		t.Fatal(err)
	}
	next, err := snap.Replace(s1b)
	if err != nil {
		t.Fatal(err)
	}
	next, err = next.Remove("s2")
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Rebase(next.Repository())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := np.nameCost["s2"]; ok {
		t.Error("removed schema's cost table survived Rebase")
	}
	// m·n costs, then the m+1 entries of the table's bound.
	if want := p.m*s1b.Len() + p.m + 1; len(np.nameCost["s1"]) != want {
		t.Errorf("replaced schema table has %d entries, want %d", len(np.nameCost["s1"]), want)
	}
	freshEqual(t, np, next.Repository())

	// The old problem still scores against the old repository.
	old, err := Exhaustive{}.Match(p, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() == 0 {
		t.Error("old problem unusable after Rebase")
	}

	if _, err := p.Rebase(nil); err == nil {
		t.Error("Rebase(nil) should error")
	}
}
