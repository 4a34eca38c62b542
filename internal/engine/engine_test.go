package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/similarity"
)

// TestScorerMatchesMetric pins the one scorer to the reference metric
// bit for bit, for every registry metric, in both argument orders and
// for repeated calls (which reuse pooled sessions).
func TestScorerMatchesMetric(t *testing.T) {
	pairs := [][2]string{
		{"customerName", "client_name"},
		{"zipcode", "postal_code"},
		{"title", "title"},
		{"", "x"},
		{"customer full name", "name"},
		{"İstanbul", "istanbul"},
	}
	for _, name := range similarity.MetricNames() {
		t.Run(name, func(t *testing.T) {
			metric, err := similarity.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sc := New(metric)
			for round := 0; round < 2; round++ {
				for _, p := range pairs {
					for _, ab := range [][2]string{p, {p[1], p[0]}} {
						want := metric.Similarity(ab[0], ab[1])
						if got := sc.Score(ab[0], ab[1]); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("Score(%q, %q) = %v, want %v", ab[0], ab[1], got, want)
						}
					}
				}
			}
			if got, want := sc.Stats(), (Stats{Misses: int64(4 * len(pairs))}); got != want {
				t.Errorf("Stats = %+v, want %+v", got, want)
			}
		})
	}
	if New(nil).MetricName() != similarity.DefaultNameMetric().Name() {
		t.Error("nil metric did not default")
	}
	if NewUncached(nil).MetricName() != New(nil).MetricName() {
		t.Error("NewUncached and New build different scorers")
	}
}

// countingMetric wraps a metric with an atomic evaluation counter, so
// tests can observe how often the scorer consults it.
type countingMetric struct {
	inner similarity.Metric
	calls atomic.Int64
}

func (c *countingMetric) Similarity(a, b string) float64 {
	c.calls.Add(1)
	return c.inner.Similarity(a, b)
}

func (c *countingMetric) Name() string { return "counting(" + c.inner.Name() + ")" }

// TestUncachedPassesThrough pins the scorer as stateless: a metric the
// kernel cannot compile is evaluated on every Score call, repeated
// pairs included, and every call counts as one pair scored.
func TestUncachedPassesThrough(t *testing.T) {
	cm := &countingMetric{inner: similarity.EditSim{}}
	u := NewUncached(cm)
	for i := 0; i < 3; i++ {
		if got, want := u.Score("a", "b"), cm.inner.Similarity("a", "b"); got != want {
			t.Fatalf("Score = %v, want %v", got, want)
		}
	}
	if got := cm.calls.Load(); got != 3 {
		t.Errorf("metric evaluated %d times, want 3 (nothing is kept between calls)", got)
	}
	if got, want := u.Stats(), (Stats{Misses: 3}); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if u.MetricName() != cm.Name() {
		t.Errorf("MetricName = %q, want %q", u.MetricName(), cm.Name())
	}
	if NewUncached(nil).MetricName() != similarity.DefaultNameMetric().Name() {
		t.Error("nil metric did not default")
	}
}

// TestStatsSub pins the snapshot difference callers use to attribute
// a scorer's work to one request or tenant.
func TestStatsSub(t *testing.T) {
	sc := New(nil)
	before := sc.Stats()
	sc.Score("title", "name")
	sess := sc.NewSession()
	out := make([]float64, 3)
	sess.ScoreRow("title", []string{"a", "b", "c"}, out)
	sess.Close()
	if got, want := sc.Stats().Sub(before), (Stats{Misses: 4}); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	got := Stats{Hits: 7, Misses: 9, Entries: 5}.Sub(Stats{Hits: 2, Misses: 4, Entries: 1})
	if want := (Stats{Hits: 5, Misses: 5, Entries: 4}); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}

// TestScorerConcurrentAccess hammers one scorer from many goroutines —
// run under -race this is its concurrent-access safety test. Every
// value must equal the metric's and the pair counter must be exact.
func TestScorerConcurrentAccess(t *testing.T) {
	metric := similarity.EditSim{}
	sc := New(metric)
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("element_%d", i)
	}
	const goroutines, rounds = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := sc.NewSession()
			defer sess.Close()
			out := make([]float64, len(names))
			for r := 0; r < rounds; r++ {
				for i := range names {
					a := names[(i+g)%len(names)]
					b := names[(i*7+r)%len(names)]
					if got, want := sc.Score(a, b), metric.Similarity(a, b); got != want {
						t.Errorf("concurrent Score(%q, %q) = %v, want %v", a, b, got, want)
						return
					}
				}
				sess.ScoreRow(names[r%len(names)], names, out)
			}
		}(g)
	}
	wg.Wait()
	if got, want := sc.Stats().Misses, int64(goroutines*rounds*2*len(names)); got != want {
		t.Errorf("pairs scored = %d, want %d", got, want)
	}
}

// TestForEachWorker pins the fan-out contract: every index runs exactly
// once, every worker id is below the resolved pool size, and no worker
// runs two jobs at once (its per-worker state needs no lock).
func TestForEachWorker(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, n + 5} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			pool := ResolveWorkers(workers, n)
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, pool)
			ForEachWorker(n, workers, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("job %d on worker %d, want < %d", i, w, pool)
					return
				}
				if !busy[w].CompareAndSwap(false, true) {
					t.Errorf("worker %d runs job %d while busy with another", w, i)
					return
				}
				runtime.Gosched()
				runs[i].Add(1)
				busy[w].Store(false)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("job %d ran %d times, want 1", i, got)
				}
			}
		})
	}
	ForEachWorker(0, 4, func(w, i int) { t.Errorf("job %d ran on an empty range", i) })
}

func TestBuildMatrixWorkerCountInvariance(t *testing.T) {
	rows := []string{"book", "title", "author", "price"}
	cols := make([]string, 40)
	for i := range cols {
		cols[i] = fmt.Sprintf("field%c%d", 'a'+i%3, i)
	}
	serial := BuildMatrix(rows, cols, plainScorer{New(nil)}, 1)
	sc := New(nil)
	parallel := BuildMatrix(rows, cols, sc, 8)
	if serial.Rows() != len(rows) || serial.Cols() != len(cols) {
		t.Fatalf("dims = %dx%d", serial.Rows(), serial.Cols())
	}
	for i := range rows {
		for j := range cols {
			if s, p := serial.At(i, j), parallel.At(i, j); s != p {
				t.Fatalf("At(%d,%d): serial %v != parallel %v", i, j, s, p)
			}
		}
	}
	if got, want := sc.Stats().Misses, int64(len(rows)*len(cols)); got != want {
		t.Errorf("pairs scored = %d, want %d (one per cell)", got, want)
	}
}

func TestBuildSymmetricWorkerCountInvariance(t *testing.T) {
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("name_%d_%c", i, 'a'+i%5)
	}
	serial := BuildSymmetric(names, plainScorer{New(nil)}, 1)
	parallel := BuildSymmetric(names, New(nil), 8)
	for i := range names {
		if serial.At(i, i) != 1 {
			t.Fatalf("At(%d,%d) = %v, want 1", i, i, serial.At(i, i))
		}
		for j := range names {
			if s, p := serial.At(i, j), parallel.At(i, j); s != p {
				t.Fatalf("At(%d,%d): serial %v != parallel %v", i, j, s, p)
			}
			if serial.At(i, j) != serial.At(j, i) {
				t.Fatalf("At(%d,%d) not symmetric", i, j)
			}
		}
	}
}
