package matching

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/xmlschema"
)

// randomProblem builds a small random matching problem from a seed:
// a 2–4 element personal schema and 2–4 repository schemas of up to 12
// elements each, names drawn from a small shared pool so collisions
// and near-misses occur.
func randomProblem(seed uint64) (*Problem, error) {
	rng := stats.NewRNG(seed)
	pool := []string{"alpha", "beta", "gamma", "delta", "item", "price",
		"name", "code", "value", "node", "entry", "field"}

	buildTree := func(size int, prefix string) *xmlschema.Element {
		root := xmlschema.NewElement(stats.Pick(rng, pool))
		nodes := []*xmlschema.Element{root}
		for len(nodes) < size {
			parent := stats.Pick(rng, nodes)
			if len(parent.Children) >= 3 {
				continue
			}
			child := xmlschema.NewElement(stats.Pick(rng, pool))
			parent.Add(child)
			nodes = append(nodes, child)
		}
		return root
	}
	personal, err := xmlschema.NewSchema("p", buildTree(2+rng.Intn(3), "p"))
	if err != nil {
		return nil, err
	}
	repo := xmlschema.NewRepository()
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		s, err := xmlschema.NewSchema(fmt.Sprintf("s%d", i), buildTree(4+rng.Intn(9), "r"))
		if err != nil {
			return nil, err
		}
		if err := repo.Add(s); err != nil {
			return nil, err
		}
	}
	return NewProblem(personal, repo, DefaultConfig())
}

// Property: every answer the exhaustive matcher emits is valid, scored
// consistently with the reference Score, and within the threshold.
func TestExhaustiveSoundnessProperty(t *testing.T) {
	f := func(seed uint64, deltaRaw uint8) bool {
		prob, err := randomProblem(seed)
		if err != nil {
			return false
		}
		delta := float64(deltaRaw%100) / 100
		set, err := Exhaustive{}.Match(prob, delta)
		if err != nil {
			return false
		}
		for _, a := range set.All() {
			if !prob.Valid(a.Mapping) {
				return false
			}
			ref, err := prob.Score(a.Mapping)
			if err != nil || absF(ref-a.Score) > 1e-9 {
				return false
			}
			if a.Score > delta+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// completenessCase is one input of TestExhaustiveCompletenessProperty:
// a randomProblem seed and a threshold byte (δ = (deltaRaw mod 100)/100).
type completenessCase struct {
	name     string
	seed     uint64
	deltaRaw uint8
}

// completenessCases is the property's fixed input table: a named
// regression plus seeds drawn once from a fixed generator, so every
// run checks the same problems.
func completenessCases() []completenessCase {
	cases := []completenessCase{
		// δ = 0.85 with an answer scored 0.8500000000000001: the
		// enumerator keeps it (it prunes above δ+ThresholdEps), so the
		// prefix cut must count it too.
		{"regression/epsilon-cut", 0x65266180c2e72af0, 0xb9},
	}
	rng := stats.NewRNG(0x636f6d706c657465) // "complete"
	for i := 0; i < 40; i++ {
		cases = append(cases, completenessCase{fmt.Sprintf("seed-%d", i), rng.Uint64(), uint8(rng.Intn(256))})
	}
	return cases
}

// Property: completeness — Match(δ) returns exactly the prefix of
// Match(δmax) with score ≤ δ (no answers are lost at lower thresholds).
func TestExhaustiveCompletenessProperty(t *testing.T) {
	for _, tc := range completenessCases() {
		t.Run(tc.name, func(t *testing.T) {
			prob, err := randomProblem(tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Exhaustive{}.Match(prob, 2)
			if err != nil {
				t.Fatal(err)
			}
			delta := float64(tc.deltaRaw%100) / 100
			sub, err := Exhaustive{}.Match(prob, delta)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Len() != full.CountAt(delta) {
				t.Fatalf("δ=%v: Match(δ) has %d answers, CountAt(δ) of the full set %d", delta, sub.Len(), full.CountAt(delta))
			}
			if err := sub.SubsetOf(full); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: the parallel matcher agrees with the sequential one on
// random problems.
func TestParallelEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		prob, err := randomProblem(seed)
		if err != nil {
			return false
		}
		seq, err := Exhaustive{}.Match(prob, 0.6)
		if err != nil {
			return false
		}
		par, err := ParallelExhaustive{Workers: 3}.Match(prob, 0.6)
		if err != nil {
			return false
		}
		if seq.Len() != par.Len() {
			return false
		}
		for i := range seq.All() {
			if !seq.All()[i].Mapping.Equal(par.All()[i].Mapping) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
