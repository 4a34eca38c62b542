package engine

import (
	"sync/atomic"

	"repro/internal/similarity"
)

// RowSession scores batches of pairs sharing a row name. Sessions own
// per-worker scratch (compiled-kernel buffers, profile lookups), so a
// session must be used by one goroutine at a time and Closed when the
// build finishes. Scores are bit-identical to Scorer.Score on the same
// scorer — a session is an execution strategy, not a different metric.
type RowSession interface {
	// ScoreRow writes Score(row, cols[j]) into out[j] for every j.
	ScoreRow(row string, cols []string, out []float64)
	// ScoreRowMasked is ScoreRow restricted to columns with keep[j]
	// true; other entries of out are left untouched.
	ScoreRowMasked(row string, cols []string, out []float64, keep []bool)
	// Close releases the session's scratch. The session must not be
	// used afterwards.
	Close()
}

// RowScorer is the optional batching extension of Scorer: scorers that
// can amortize profile derivation and buffer setup across a row expose
// sessions; plain Scorers keep working through the per-pair fallback.
// KernelScorer implements it over its compiled similarity kernel.
type RowScorer interface {
	Scorer
	// NewSession returns a fresh row-scoring session for one worker.
	NewSession() RowSession
}

// NewRowSession returns a scoring session for sc: its own when sc
// implements RowScorer, otherwise a fallback delegating to Score.
func NewRowSession(sc Scorer) RowSession {
	if rs, ok := sc.(RowScorer); ok {
		return rs.NewSession()
	}
	return scorerSession{sc: sc}
}

// scorerSession is the per-pair fallback for plain Scorers.
type scorerSession struct{ sc Scorer }

func (s scorerSession) ScoreRow(row string, cols []string, out []float64) {
	for j, c := range cols {
		out[j] = s.sc.Score(row, c)
	}
}

func (s scorerSession) ScoreRowMasked(row string, cols []string, out []float64, keep []bool) {
	for j, c := range cols {
		if keep[j] {
			out[j] = s.sc.Score(row, c)
		}
	}
}

func (s scorerSession) Close() {}

// NewSession implements RowScorer: scoring runs through the compiled
// kernel, with the row profile interned once per row.
func (k *KernelScorer) NewSession() RowSession {
	return &kernelSession{ks: k.kern.Session(), pairs: &k.pairs}
}

// colCache memoizes the interned profiles of a column slice across the
// rows of one batch. Builders score many rows against the same backing
// array (possibly re-sliced, as in BuildSymmetric's growing triangle
// rows), so only the first row pays the per-column interner lookups.
// Holding a pointer into the array keeps it alive, so a matching base
// pointer always means the same array; callers must not mutate a cols
// slice between ScoreRow calls that share it (the builders never do).
type colCache struct {
	base  *string
	profs []*similarity.NameProfile
}

func (cc *colCache) profiles(ks *similarity.KernelSession, cols []string) []*similarity.NameProfile {
	if len(cols) == 0 {
		return nil
	}
	if cc.base != &cols[0] {
		cc.base = &cols[0]
		cc.profs = cc.profs[:0]
	}
	if len(cols) <= len(cc.profs) {
		return cc.profs[:len(cols)]
	}
	for _, c := range cols[len(cc.profs):] {
		cc.profs = append(cc.profs, ks.Profile(c))
	}
	return cc.profs
}

type kernelSession struct {
	ks    *similarity.KernelSession
	cols  colCache
	pairs *atomic.Int64
}

func (s *kernelSession) ScoreRow(row string, cols []string, out []float64) {
	rp := s.ks.Profile(row)
	for j, cp := range s.cols.profiles(s.ks, cols) {
		out[j] = s.ks.SimilarityProfiles(rp, cp)
	}
	s.pairs.Add(int64(len(cols)))
}

func (s *kernelSession) ScoreRowMasked(row string, cols []string, out []float64, keep []bool) {
	rp := s.ks.Profile(row)
	n := 0
	for j, cp := range s.cols.profiles(s.ks, cols) {
		if keep[j] {
			out[j] = s.ks.SimilarityProfiles(rp, cp)
			n++
		}
	}
	s.pairs.Add(int64(n))
}

func (s *kernelSession) Close() { s.ks.Close() }
