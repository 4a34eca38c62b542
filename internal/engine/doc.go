// Package engine is the shared scoring substrate of the matching
// system: a single, memoized source of node-pair similarity scores that
// every matcher (exhaustive, parallel, beam, top-k), the clusterer, and
// the experiment pipeline draw from instead of invoking a
// similarity.Metric directly.
//
// # The Scorer contract
//
// A Scorer returns the name similarity of two strings in [0, 1] (1 =
// identical) and identifies the metric it evaluates. Implementations
// must be deterministic — Score(a, b) always returns the same value for
// the same pair — and safe for concurrent use; the matchers and the
// worker-pool builders call Score from many goroutines at once.
// Determinism is what makes memoization sound and what guarantees that
// a cached and an uncached run of the same matcher produce identical
// answer sets.
//
// Two implementations are provided:
//
//   - Uncached wraps a similarity.Metric one-to-one: every Score call
//     pays the full string-metric cost. It is the reference baseline
//     the engine benchmarks compare against.
//   - Memo is the production scorer: a sharded, concurrently built,
//     memoized similarity matrix. The first evaluation of a pair pays
//     the metric; every later evaluation — from any matcher, any
//     threshold sweep, any improvement run sharing the scorer — is a
//     lock-cheap table lookup.
//
// # Cache-key scheme
//
// Memo keys its table by the ordered name pair (a, b); no symmetry is
// assumed, so asymmetric metrics (e.g. Monge-Elkan) memoize correctly.
// The pair hashes (FNV-1a over a, a NUL separator, and b) onto one of a
// fixed number of shards, each an independently locked map, so
// concurrent builders and matchers contend only when they touch the
// same shard — this is what lets ParallelExhaustive's workers and
// repeated RunImprovement calls grow one cache without serializing on a
// single lock.
//
// One level up, Cache keys whole scorers by (problem, metric): the
// problem is a caller-chosen identity (typically the scenario or
// repository name) and the metric is identified by Metric.Name(). Two
// pipelines matching the same problem under the same metric therefore
// share one memo table, while different metrics or different corpora
// stay isolated. Metric names are trusted to identify behaviour — two
// different metrics must not share a name within one Cache.
//
// # Builders
//
// BuildMatrix and BuildSymmetric are the worker-pool builders: they
// evaluate a dense rows×cols (or all-unordered-pairs) score matrix by
// fanning row blocks out over a bounded pool of goroutines, each
// hitting the shared Scorer. Used with a Memo they warm the cache while
// producing the dense tables the matchers index during enumeration.
//
// # Row scoring sessions
//
// RowScorer is the batching extension of Scorer. Instead of paying the
// per-pair setup of Score for every cell — re-deriving the row name's
// tokens, grams, and rune forms cols times — a RowScorer hands out
// RowSessions: single-goroutine contexts that score one row name
// against a whole column slice (ScoreRow / ScoreRowMasked) over
// interned name profiles and reused scratch buffers. Both Uncached and
// Memo implement RowScorer by compiling their metric into a
// similarity.Kernel; the kernel contract guarantees bit-identical
// scores, so a session is purely an execution strategy — answer sets,
// memo contents, and reports are unchanged.
//
// The builders (and the matching layer's cost-table construction)
// create one session per pool worker via NewRowSession, which falls
// back to a per-pair Score loop for plain Scorers — third-party Scorer
// implementations keep working unmodified. Sessions must be Closed
// after the fan-out so their scratch returns to the kernel's pool.
// ForEachWorker exposes the worker identity that makes per-worker
// sessions sound: jobs on one worker run sequentially.
//
// # Hit rates under vocabulary-indexed builds
//
// The matching layer's cost-table build scores each distinct
// (personal name, repository name) pair once per build, however often
// the names repeat across the repository's elements (see the "Cost
// tables" section of internal/matching). A memo behind it therefore
// records one lookup per distinct pair: the first build of a problem
// only misses and a repeated build only hits, where a per-cell build
// used to add one hit per repeated name. Entries, the set of memoized
// pairs, are the same either way; hit counts and hit rates are lower.
package engine
