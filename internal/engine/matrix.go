package engine

import (
	"runtime"
	"sync"
)

// Matrix is a dense rows×cols score matrix: Vals[i*cols+j] is the score
// of (rowNames[i], colNames[j]). It is immutable after construction.
type Matrix struct {
	rows, cols int
	vals       []float64
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the score of row i against column j.
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.cols+j] }

// Values returns the backing row-major slice. Every Build call
// allocates fresh storage, so the caller owns the returned slice and
// may transform it in place (the matchers negate it into cost tables);
// after such a transform the Matrix accessors reflect the new values.
func (m *Matrix) Values() []float64 { return m.vals }

// ResolveWorkers clamps a requested worker count to [1, jobs], with
// values < 1 defaulting to GOMAXPROCS. It is the sizing rule ForEach
// and ForEachWorker apply, exported so callers allocating per-worker
// state (row-scoring sessions, scratch rows) can size their slices to
// the pool that will actually run.
func ResolveWorkers(workers, jobs int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on a worker pool of the
// given size (< 1 selects GOMAXPROCS, clamped to n). It is the single
// fan-out primitive behind the matrix builders and the problem table
// build; fn must be safe to call concurrently for distinct i.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with worker identity: fn(w, i) runs job i on
// worker w, where w < ResolveWorkers(workers, n). Jobs on the same
// worker run sequentially, so fn may keep per-w state (a scoring
// session, scratch buffers) without synchronization.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	workers = ResolveWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// sessionSet lazily materializes one RowSession per worker. Sessions
// are created on a worker's first job — a pool larger than the row
// count never pays for unused sessions — and must be Closed after the
// fan-out completes.
type sessionSet struct {
	sc       Scorer
	sessions []RowSession
}

func newSessionSet(sc Scorer, workers int) *sessionSet {
	return &sessionSet{sc: sc, sessions: make([]RowSession, workers)}
}

func (ss *sessionSet) session(w int) RowSession {
	if ss.sessions[w] == nil {
		ss.sessions[w] = NewRowSession(ss.sc)
	}
	return ss.sessions[w]
}

func (ss *sessionSet) close() {
	for _, s := range ss.sessions {
		if s != nil {
			s.Close()
		}
	}
}

// BuildMatrix evaluates sc on every (row, col) name pair with a
// worker pool of the given size (< 1 selects GOMAXPROCS), fanning rows
// out over the workers. Each worker writes a disjoint row range and
// scores through its own RowSession (per-pair fallback for plain
// Scorers), so the only synchronization is inside the Scorer.
func BuildMatrix(rowNames, colNames []string, sc Scorer, workers int) *Matrix {
	m := &Matrix{rows: len(rowNames), cols: len(colNames), vals: make([]float64, len(rowNames)*len(colNames))}
	ss := newSessionSet(sc, ResolveWorkers(workers, m.rows))
	ForEachWorker(m.rows, workers, func(w, i int) {
		ss.session(w).ScoreRow(rowNames[i], colNames, m.vals[i*m.cols:(i+1)*m.cols])
	})
	ss.close()
	return m
}

// BuildMatrixMasked is BuildMatrix restricted to the pairs mask
// admits: entries with mask(i, j) == false are never scored and stay
// zero in the returned matrix (the caller substitutes its own value —
// the matching layer writes a conservative cost bound there). A nil
// mask scores every pair, exactly like BuildMatrix. The mask must be
// safe to call concurrently for distinct rows.
func BuildMatrixMasked(rowNames, colNames []string, sc Scorer, workers int, mask func(i, j int) bool) *Matrix {
	if mask == nil {
		return BuildMatrix(rowNames, colNames, sc, workers)
	}
	m := &Matrix{rows: len(rowNames), cols: len(colNames), vals: make([]float64, len(rowNames)*len(colNames))}
	nw := ResolveWorkers(workers, m.rows)
	ss := newSessionSet(sc, nw)
	keeps := make([][]bool, nw)
	ForEachWorker(m.rows, workers, func(w, i int) {
		keep := keeps[w]
		if keep == nil {
			keep = make([]bool, m.cols)
			keeps[w] = keep
		}
		any := false
		for j := range colNames {
			k := mask(i, j)
			keep[j] = k
			any = any || k
		}
		if any {
			ss.session(w).ScoreRowMasked(rowNames[i], colNames, m.vals[i*m.cols:(i+1)*m.cols], keep)
		}
	})
	ss.close()
	return m
}

// SymMatrix stores scores for every unordered pair of n items as a
// lower triangle. The diagonal is not stored: At(i, i) returns 1
// (every name is fully similar to itself).
type SymMatrix struct {
	n    int
	vals []float64
}

// Len returns the item count.
func (m *SymMatrix) Len() int { return m.n }

func (m *SymMatrix) index(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// At returns the score of items i and j (1 on the diagonal).
func (m *SymMatrix) At(i, j int) float64 {
	if i == j {
		return 1
	}
	return m.vals[m.index(i, j)]
}

// Values returns the backing lower-triangle slice, indexed
// i*(i-1)/2 + j for i > j. As with Matrix.Values, each Build call
// allocates fresh storage and the caller owns the slice.
func (m *SymMatrix) Values() []float64 { return m.vals }

// BuildSymmetric evaluates sc on every unordered name pair with a
// worker pool (workers < 1 selects GOMAXPROCS), fanning rows of the
// lower triangle out over the workers. Pairs are evaluated as
// (names[i], names[j]) with i > j — the same orientation the serial
// cluster matrix builder uses — so asymmetric metrics score
// deterministically regardless of worker count.
func BuildSymmetric(names []string, sc Scorer, workers int) *SymMatrix {
	n := len(names)
	m := &SymMatrix{n: n, vals: make([]float64, n*(n-1)/2)}
	ss := newSessionSet(sc, ResolveWorkers(workers, n-1))
	// Hand out large rows first so the pool drains evenly.
	ForEachWorker(n-1, workers, func(w, k int) {
		i := n - 1 - k
		base := i * (i - 1) / 2
		ss.session(w).ScoreRow(names[i], names[:i], m.vals[base:base+i])
	})
	ss.close()
	return m
}
