package matching

import (
	"math"
	"testing"

	"repro/internal/xmlschema"
)

// chainSchema builds a schema that is one chain of the given names.
func chainSchema(t *testing.T, name string, names ...string) *xmlschema.Schema {
	t.Helper()
	root := xmlschema.NewElement(names[0])
	for last, i := root, 1; i < len(names); i++ {
		e := xmlschema.NewElement(names[i])
		last.Add(e)
		last = e
	}
	s, err := xmlschema.NewSchema(name, root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBoundSlackKeepsAnswerAtLimit pins BoundSlack on a mapping whose
// score is exactly δ + ThresholdEps. A 3-chain personal maps into a
// 3-chain schema one way only, at stretch 1 (edge cost 0), so its score
// is (n0 + n1) + n2 while the bound after the root is n0 + (n1 + n2).
// The table's costs are chosen so the second sum rounds one ulp above
// the first: without the slack the cut would drop the only answer.
func TestBoundSlackKeepsAnswerAtLimit(t *testing.T) {
	personal := chainSchema(t, "p", "a", "b", "c")
	repo := xmlschema.NewRepository()
	s := chainSchema(t, "s", "x", "y", "z")
	if err := repo.Add(s); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NameWeight, cfg.StructWeight = 1, 0
	p, err := NewProblem(personal, repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Search raw costs x_j for NameCost n_j = x_j/3 with the right
	// rounding, and a δ whose limit δ + ThresholdEps is the score itself.
	var raw [3]float64
	var score, delta float64
	found := false
	for i := 1; i < 1000 && !found; i++ {
		for j := 1; j < 1000 && !found; j++ {
			raw = [3]float64{float64(i) / 1000, float64(j) / 1000, 0.001}
			n0, n1, n2 := raw[0]/3, raw[1]/3, raw[2]/3
			score, delta = (n0+n1)+n2, (n0+n1)+n2-ThresholdEps
			found = n0+(n2+n1) > score && delta+ThresholdEps == score
		}
	}
	if !found {
		t.Fatal("no cost triple rounds the bound above the score")
	}
	table := p.nameCost["s"]
	for pid := range 3 {
		for rid := range 3 {
			table[pid*3+rid] = 1
		}
		table[pid*3+pid] = raw[pid]
	}
	p.boundRows(table, 3)
	if v := p.View(s); v.Rest(0) <= score {
		t.Fatalf("bound %v does not round above the score %v", v.Rest(0), score)
	}
	set, st, err := Exhaustive{}.MatchStatsContext(t.Context(), p, delta)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 || math.Float64bits(set.All()[0].Score) != math.Float64bits(score) {
		t.Fatalf("answers at δ + ThresholdEps = score %v: %v (stats %+v)", score, set.All(), st)
	}
}
