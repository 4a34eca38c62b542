// Package engine is the shared scoring substrate of the matching
// system: the single source of node-pair similarity scores that every
// matcher (exhaustive, parallel, beam, top-k), the clusterer, and the
// experiment pipeline draw from instead of invoking a
// similarity.Metric directly.
//
// # The Scorer contract
//
// A Scorer returns the name similarity of two strings in [0, 1] (1 =
// identical) and identifies the metric it evaluates. Implementations
// must be deterministic — Score(a, b) always returns the same value for
// the same pair — and safe for concurrent use; the matchers and the
// worker-pool builders call Score from many goroutines at once.
// Determinism is what guarantees that every route an answer set can
// take (serial or parallel, filtered or not, rebuilt after an update
// or recovered from the store) scores pairs identically — the
// S2 ⊆ S1-with-identical-scores property the paper's bounds rest on.
//
// # The one scorer
//
// KernelScorer, built by New (NewUncached is the same constructor),
// is a pure function of its name pair: the metric compiled into a
// similarity.Kernel, whose contract is bit-identity with the
// reference Metric.Similarity, plus an atomic count of the pairs
// scored. It keeps no table of scores. Score evaluates the kernel
// through a pooled KernelSession; Stats reports the pair count as
// Misses, with Hits and Entries always 0.
//
// Nothing is cached across calls because nothing needs to be: the
// matching layer's cost-table build scores each distinct
// (personal name, repository name) pair once per build (see the "Cost
// tables" section of internal/matching), and a service keeps built
// tables in its per-personal-schema sessions. A scorer therefore has
// no state to warm, prune or persist, and it can be shared freely —
// a service hands its one scorer to the cluster index, the shard
// searchers and the candidate index.
//
// # Builders
//
// BuildMatrix and BuildSymmetric are the worker-pool builders: they
// evaluate a dense rows×cols (or all-unordered-pairs) score matrix by
// fanning row blocks out over a bounded pool of goroutines, each
// scoring through its own session.
//
// # Row scoring sessions
//
// RowScorer is the batching extension of Scorer. Instead of paying the
// per-pair setup of Score for every cell — re-deriving the row name's
// tokens, grams, and rune forms cols times — a RowScorer hands out
// RowSessions: single-goroutine contexts that score one row name
// against a whole column slice (ScoreRow / ScoreRowMasked) over
// interned name profiles and reused scratch buffers. KernelScorer
// implements RowScorer over its kernel; the kernel contract guarantees
// bit-identical scores, so a session is purely an execution strategy.
//
// The builders (and the matching layer's cost-table construction)
// create one session per pool worker via NewRowSession, which falls
// back to a per-pair Score loop for plain Scorers — third-party Scorer
// implementations keep working unmodified. Sessions must be Closed
// after the fan-out so their scratch returns to the kernel's pool.
// ForEachWorker exposes the worker identity that makes per-worker
// sessions sound: jobs on one worker run sequentially.
package engine
