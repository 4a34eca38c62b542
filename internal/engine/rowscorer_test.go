package engine

import (
	"math"
	"testing"
)

var rowNamesFixture = []string{
	"customerName", "client_name", "XMLSchemaID", "order-item.price",
	"İstanbul", "zipcode", "postcode", "", " customer ",
}

// TestBuildMatrixSessionParity pins the session-backed builders to the
// per-cell Score reference, bit for bit, for the scorer and for a
// plain (non-RowScorer) wrapper.
func TestBuildMatrixSessionParity(t *testing.T) {
	rows := rowNamesFixture
	cols := append([]string{"client", "priceOfOrderItem"}, rowNamesFixture...)
	scorers := map[string]Scorer{
		"kernel": New(nil),
		"plain":  plainScorer{New(nil)},
	}
	for name, sc := range scorers {
		for _, workers := range []int{1, 4} {
			m := BuildMatrix(rows, cols, sc, workers)
			for i, rn := range rows {
				for j, cn := range cols {
					want := sc.Score(rn, cn)
					if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("%s/w=%d: At(%d,%d)=%v, want %v", name, workers, i, j, m.At(i, j), want)
					}
				}
			}
			sm := BuildSymmetric(rows, sc, workers)
			for i := range rows {
				for j := 0; j < i; j++ {
					want := sc.Score(rows[i], rows[j])
					if math.Float64bits(sm.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("%s/w=%d: sym At(%d,%d)=%v, want %v", name, workers, i, j, sm.At(i, j), want)
					}
				}
			}
			mask := func(i, j int) bool { return (i+j)%3 != 0 }
			mm := BuildMatrixMasked(rows, cols, sc, workers, mask)
			for i, rn := range rows {
				for j, cn := range cols {
					want := 0.0
					if mask(i, j) {
						want = sc.Score(rn, cn)
					}
					if math.Float64bits(mm.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("%s/w=%d: masked At(%d,%d)=%v, want %v", name, workers, i, j, mm.At(i, j), want)
					}
				}
			}
		}
	}
}

// plainScorer hides RowScorer so NewRowSession exercises the fallback.
type plainScorer struct{ sc Scorer }

func (p plainScorer) Score(a, b string) float64 { return p.sc.Score(a, b) }
func (p plainScorer) MetricName() string        { return p.sc.MetricName() }

// TestSessionZeroAlloc pins the warm batched path — the path
// BuildMatrix drives — at zero heap allocations per row.
func TestSessionZeroAlloc(t *testing.T) {
	sc := New(nil)
	sess := sc.NewSession()
	defer sess.Close()
	cols := rowNamesFixture
	out := make([]float64, len(cols))
	// Warm: intern every profile, grow scratch.
	sess.ScoreRow("customer full name", cols, out)
	allocs := testing.AllocsPerRun(100, func() {
		sess.ScoreRow("customer full name", cols, out)
	})
	if allocs != 0 {
		t.Errorf("warm ScoreRow: %v allocs, want 0", allocs)
	}
}
