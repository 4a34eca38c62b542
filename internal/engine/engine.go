package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/similarity"
)

// Scorer is the single source of node-pair similarity scores for the
// matching system. Score returns the name similarity of a and b in
// [0, 1]; MetricName identifies the underlying metric for reports.
// Implementations must be deterministic and safe for concurrent use
// (see the package documentation for the full contract).
type Scorer interface {
	// Score returns the similarity of the two names in [0, 1].
	Score(a, b string) float64
	// MetricName identifies the metric ("combined(...)").
	MetricName() string
}

// KernelScorer is the scoring engine: a metric compiled into a
// similarity.Kernel plus a count of the pairs scored. It holds no
// scores — every Score call and every session row evaluates the
// kernel, which returns exactly the metric's value — so one scorer can
// serve any number of problems, services and goroutines, and two
// scorers over the same metric always agree bit for bit.
type KernelScorer struct {
	kern *similarity.Kernel
	// sessions pools the KernelSessions Score evaluates through, so a
	// per-pair call reuses warm scratch instead of allocating it.
	sessions sync.Pool
	pairs    atomic.Int64
}

// New returns a scorer over metric; nil selects
// similarity.DefaultNameMetric.
func New(metric similarity.Metric) *KernelScorer {
	k := &KernelScorer{kern: similarity.NewKernel(metric)}
	k.sessions.New = func() any { return k.kern.Session() }
	return k
}

// NewUncached is New. It remains for callers that name the scorer
// they want by what it does not do; there is only one scorer.
func NewUncached(metric similarity.Metric) *KernelScorer { return New(metric) }

// Score implements Scorer.
func (k *KernelScorer) Score(a, b string) float64 {
	k.pairs.Add(1)
	ks := k.sessions.Get().(*similarity.KernelSession)
	v := ks.Similarity(a, b)
	k.sessions.Put(ks)
	return v
}

// MetricName implements Scorer.
func (k *KernelScorer) MetricName() string { return k.kern.Metric().Name() }

// Metric returns the compiled metric — the source of truth a candidate
// index must derive its similarity upper bounds from.
func (k *KernelScorer) Metric() similarity.Metric { return k.kern.Metric() }

// Profiles returns the interner backing the scorer's kernel, so
// callers building a candidate index over the same metric can share
// profiles instead of re-deriving them (candindex.Config.Profiles).
func (k *KernelScorer) Profiles() *similarity.Interner { return k.kern.Interner() }

// Stats returns the scorer's cumulative counters.
func (k *KernelScorer) Stats() Stats { return Stats{Misses: k.pairs.Load()} }

// Stats is a point-in-time snapshot of a scorer's work.
type Stats struct {
	// Misses counts the pairs scored: one per Score call and one per
	// column a session row evaluates. Hits is always 0: the scorer
	// keeps no table to hit.
	Hits, Misses int64
	// Entries is always 0: the scorer holds no entries. Hits and
	// Entries remain so the wire shape of the counters is unchanged.
	Entries int
}

// Sub returns the work between two snapshots of the same scorer:
// s - prev, counter by counter. Callers attributing it to one request
// (or one tenant) snapshot before and after and keep the difference;
// under concurrency the attribution is approximate, as concurrent
// traffic blends into whichever snapshots are in flight.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:    s.Hits - prev.Hits,
		Misses:  s.Misses - prev.Misses,
		Entries: s.Entries - prev.Entries,
	}
}
