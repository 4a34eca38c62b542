// Package match is the public serving API over the schema matching
// engine: build one Service per repository and serve many concurrent
// Match requests from it — or host many repositories at once behind a
// Server with batching and admission control.
//
//	svc, err := match.NewService(repo, match.WithTruth(truth))
//	res, err := svc.Match(ctx, match.Request{
//		Personal: personal,
//		Delta:    0.45,
//		Matcher:  "clustered:3",
//		Limit:    10,
//	})
//
// # What the service owns
//
// A Service is built once over an xmlschema.Repository and amortizes
// every per-repository and per-query-schema cost across requests:
//
//   - the scoring engine (engine.New) every stage draws node-pair
//     scores from — a pure function of its name pair that keeps no
//     scores, so there is nothing to warm, prune or persist;
//   - the clustered index backing "clustered" specs, built lazily on
//     the first request that needs it and reused forever after;
//   - per-personal-schema sessions (the Problem's cost tables and the
//     baseline answer set), cached keyed on the *xmlschema.Schema
//     pointer plus the serving generation and LRU-evicted beyond
//     WithSessionCacheSize.
//
// # Repository lifecycle & versioning
//
// The repository behind a Service is an immutable, versioned snapshot
// (xmlschema.Snapshot). NewService wraps and seals the repository —
// direct Repository.Add calls fail from then on — and Service.Update
// is the one mutation path:
//
//	err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
//		return s.Replace(newOrders) // or s.Add(...), s.Remove(...)
//	})
//
// Snapshot guarantees. Mutations are copy-on-write with structural
// sharing: unchanged schemas are pointer-shared between versions, the
// old snapshot stays fully valid, and versions increase monotonically
// within a lineage. A request pins the snapshot it was admitted under
// and never observes a mid-flight swap; requests admitted after Update
// returns see the new snapshot. Unknown-schema mutations fail typed
// (xmlschema.ErrUnknownSchema), duplicate adds with
// xmlschema.ErrDuplicateSchema, and a failed or no-op mutation leaves
// the service untouched.
//
// Invalidation granularity. An update invalidates exactly what it
// touches, computed from the snapshot diff (pointer comparison per
// schema name):
//
//   - cost tables: every warm session is rebased (Problem.Rebase) —
//     tables of unchanged schemas transfer by reference, only changed
//     schemas re-score;
//   - baselines: a cached baseline answer set is patched — answers
//     into removed/replaced schemas are dropped, added/replacement
//     schemas are searched at the horizon — yielding exactly the set a
//     from-scratch baseline over the new snapshot would return;
//   - cluster index: the next generation's index derives from the
//     current one via clustered.Index.Apply — membership changes only
//     for names whose repository-wide refcount crossed zero, with new
//     names joining their nearest medoid (bit-identical to rebuilding
//     membership over the fixed medoid set).
//
// When full rebuild triggers. Keeping medoids fixed preserves answer
// correctness (the clustered matcher stays a sound restriction of the
// exhaustive system at every version) but clustering quality can decay
// as the name population shifts, so Index.Apply re-clusters from
// scratch once cumulative names added+removed since the last full
// build exceed IndexConfig.RebuildFraction (default one quarter) of
// the names that build clustered. Sessions never rebuilt eagerly —
// those whose personal schema was cold at swap time — are simply
// rebuilt lazily on their next request.
//
// On a Server, UpdateTenant(name, mutate) applies the same contract to
// one tenant: the swap is atomic, batch groups never mix versions, and
// the updated snapshot is recorded on the tenant's registration so a
// service evicted from residency and later rebuilt fast-forwards to it
// rather than reverting to the registration-time repository.
//
// # Matcher registry
//
// Systems are named by string specs — "exhaustive", "parallel[:N]",
// "beam:W", "topk:M", "clustered[:T]", "sharded[:K[:spec]]" — parsed
// by Parse and resolved against the service by Service.Matcher. Spec
// strings are canonical: every matcher's Name() returns its spec, and
// Parse(Name()) yields the matcher back, so reports, configs, and logs
// all speak the same identifiers. Trailing content after a complete
// spec ("beam:4:junk") is rejected with the typed ErrTrailingSpec.
// Request.System accepts an out-of-registry matching.Matcher instance
// instead.
//
// # Sharded search
//
// A "sharded:K:spec" request partitions the repository schemas into K
// shards and runs the inner spec on every shard in parallel, merging
// the per-shard answer sets — scatter-gather over one repository,
// served by an internal shard.Searcher the service builds lazily per
// shard count and maintains across updates. WithShards(k) sets the
// default count (so bare "sharded" resolves) and switches the service
// baseline to "sharded:k"; WithShardStrategy selects the partitioner.
//
// Partitioning strategies. "hash" (default) assigns each schema by a
// stable hash of its name: balanced in expectation, zero analysis
// cost, and assignment never depends on the rest of the corpus.
// "cluster" groups element names with the same k-medoids machinery the
// clustered index uses and co-locates schemas sharing vocabulary:
// per-shard name populations get tighter (fewer distinct names per
// shard index, more selective cluster restriction per shard), at the
// price of possible imbalance — the hash strategy is the right default
// until profiles show shard indexes dominated by vocabulary spread.
//
// Merge semantics. Every registry matcher searches repository schemas
// independently — the exhaustive enumeration, the beam frontier (per
// schema), and the top-k projection (per branch) never share state
// across schemas, and a mapping never spans schemas. Shards partition
// the schemas, so the union of per-shard answer sets at the global δ
// is bit-identical to the unsharded answer set: same answers, same
// scores, same deterministic order (TestShardParityProperty). The
// clustered family keeps parity because every shard's index is derived
// from one repository-wide clustering — all shards select against the
// same medoid set the unsharded index uses. Consequently "sharded:K"
// (inner exhaustive) is itself an exhaustive system: it may serve as
// the bounds baseline, and non-exhaustive sharded requests
// ("sharded:K:beam:8") carry bounds exactly like their unsharded
// forms.
//
// Updates. Service.Update routes the snapshot diff to only the
// affected shards: unaffected shards keep their sub-snapshots, scoring
// caches, and derived indexes by pointer across the swap, while
// affected shards rebuild their sub-snapshot and patch their index
// incrementally (clustered.Index.Apply) — a one-schema update
// re-indexes one shard, not the corpus.
//
// # Candidate pruning
//
// WithCandidateIndex(horizon) puts an inverted q-gram index
// (internal/candindex) over the repository's element names in front of
// every cost-table build. The index serves, per personal-schema name,
// a provable similarity upper bound against every repository name; the
// build then prunes at two levels — a pair whose cost lower bound
// alone exceeds the horizon keeps the bound in the table instead of a
// computed score, and a schema whose summed per-row minimum bounds
// exceed the budget is skipped before any metric evaluation. Both
// prunes are admissible: the substituted bound already exceeds the
// enumeration threshold wherever it is consulted, so every matcher
// family discards exactly the partial mappings the unfiltered build
// would, and answer sets at thresholds within the horizon are
// bit-identical — scores, keys, and rank order (make cand-prop).
//
// Exact vs heuristic. The filtered tables are exact for every request
// delta ≤ horizon. Requests above the horizon are transparently served
// by a separate unfiltered problem the session builds lazily, so a
// service with a candidate index never returns a heuristic answer: the
// horizon only decides which requests benefit from pruning. Passing
// horizon ≤ 0 defaults it to the top of the service's threshold grid,
// covering every in-grid request. WithCandidateIndex requires a scorer
// that exposes its metric (engine.KernelScorer, or any scorer with a
// Metric() accessor), because bounds are only admissible for
// the metric the tables are scored with; NewService rejects the option
// otherwise.
//
// Telemetry. Result.Stats.Candidates is non-nil exactly when the
// request was served by a filtered problem (delta within the horizon):
// Pairs and Pruned count table entries bounded instead of scored,
// SkippedSchemas counts schemas proven answer-free before scoring,
// Delta and Floor echo the horizon and the per-pair similarity floor
// it implies.
//
// Updates and shards. Service.Update advances the index by applying
// the same snapshot diff the cluster index consumes
// (candindex.Index.Apply, copy-on-write over interned name profiles),
// and sharded searchers derive per-shard candidate indexes from the
// service's global one, carrying them across updates shard-by-shard
// like every other per-shard structure. The option adds no new
// registry spec surface — requests opt in simply by running against a
// service built with WithCandidateIndex, so registry parsing (and
// FuzzParseSpec's seed corpus) is unchanged.
//
// # Effectiveness bounds
//
// When a request runs a non-exhaustive system and the service has a
// baseline effectiveness source, Result.Bounds carries the paper's
// guaranteed P/R intervals at every service threshold ≤ Request.Delta:
//
//   - WithTruth (synthetic corpora): the service runs the baseline
//     system once per session, measures its curve against the truth,
//     verifies the request's answers are a subset of the baseline's
//     (the improvement property the technique requires), and computes
//     the incremental bounds.
//   - WithBaselineCurve (production): S1's curve is supplied from a
//     prior evaluation or the literature; no baseline run and no
//     subset verification happen (the bounds input validation still
//     rejects answer counts exceeding the curve's).
//
// Exhaustive requests ("exhaustive", "parallel") never carry bounds —
// they are the baseline.
//
// # Concurrency and cancellation
//
// A Service is safe for concurrent use after construction. Concurrent
// requests share the scoring engine (per-shard locks), the index
// (built once), and sessions: the first request for a personal schema
// builds its cost tables and the first request needing a baseline runs
// it, each exactly once, while concurrent waiters either adopt the
// result or honor their own ctx and leave.
//
// Service.Match honors ctx end-to-end through the search layer: every
// matcher polls cancellation periodically inside its enumeration hot
// loop (a counter test per candidate; the channel read happens every
// 1024 candidates, keeping it off the per-node fast path) and returns
// ctx.Err() promptly with no result and no leaked goroutines — the
// parallel matcher joins all workers before returning. Cost-table
// construction is the one non-cancellable stage; it is bounded by
// corpus size, not by search-space size.
//
// Result values are immutable once returned; Result.Answers and
// Result.Set alias the same underlying storage and must not be
// modified.
//
// # Multi-tenant serving
//
// A Server hosts many named repositories ("tenants") behind one API:
//
//	srv := match.NewServer(match.WithWorkers(8), match.WithQueueDepth(64))
//	defer srv.Close()
//	err := srv.AddTenant("acme", acmeRepo)
//	res, err := srv.Match(ctx, "acme", match.Request{...})
//	results  := srv.MatchBatch(ctx, batchRequests)
//
// The tenancy model: tenants are registered up front (Register or
// AddTenant) but their Services are built lazily on first request. An
// LRU bounds how many tenants stay resident (WithResidentTenants);
// evicting a tenant drops its service — cluster index, sessions —
// while requests already holding it finish safely, and the
// next request rebuilds it from the registration.
//
// The server keeps no goroutines of its own: every request group runs
// on the goroutine of the call that submitted it. Admission control
// bounds that work: WithWorkers sets how many groups run at once,
// WithQueueDepth how many admitted groups may wait for one of those
// execution slots, and WithTenantConcurrency caps one tenant's
// in-flight request groups. Server.Match is the open-loop path — an
// overloaded submission fails immediately with the typed ErrOverloaded
// (test with errors.Is) so callers can shed or retry on their own
// schedule. A caller whose ctx ends while its group waits — for a
// slot, for the tenant's service build or for cost tables another
// request is building — gets ctx.Err() at once and gives its place
// back; a tenant build goes on, on a goroutine of its own, for the
// next request.
//
// MatchBatch is the closed-loop path for callers that already hold
// many requests. It groups same-tenant, same-personal-schema requests
// so each group pays one session build, coalesces byte-identical
// registry queries inside a group into a single search (duplicates
// share one immutable Result), runs distinct groups in parallel, each
// on a goroutine of its own, and back-pressures instead of failing
// fast: a refused group waits for one of the batch's own groups to
// finish and retries, and is rejected with ErrOverloaded only when the
// server is saturated by other traffic. Use Match for interactive
// single queries, MatchBatch whenever several requests exist at once.
//
// Server.Stats and Server.TenantStats expose the admission counters
// and per-tenant residency, in-flight load, and name pairs scored for
// dashboards.
//
// # Graceful drain
//
// Server.Drain(ctx) retires a server without failing admitted work:
// admission closes first (new submissions are rejected with the typed
// ErrServerClosed, exactly as after Close), then Drain waits until
// every admitted request group has completed, and only then closes the
// server. The guarantee is zero failed in-flight requests:
// any Match or MatchBatch group that was admitted before Drain began
// runs to completion on its pinned snapshot — UpdateTenant calls
// racing the drain either complete or observe the closed server, never
// corrupt it. ctx bounds the wait; on expiry Drain returns ctx.Err()
// with the server still draining (admission stays closed), so the
// caller chooses between extending the deadline and forcing Close.
// Drain is idempotent and Drain-after-Close is a no-op.
// ServerStats.Draining and ServerStats.InFlight expose the drain state
// for health endpoints.
//
// # Network serving
//
// The Server is embeddable, and internal/httpserve plus cmd/matchd
// serve it over HTTP for callers outside the process. The wire
// protocol (version v1) mirrors Request and Result as JSON:
//
//   - POST /v1/match/{tenant} and POST /v1/batch carry personal
//     schemas as name-typed element trees, delta, a registry matcher
//     spec, and a limit; responses carry the ranked answers, the full
//     Stats (search work, pairs scored, shard fan-out, candidate
//     pruning), and the guaranteed bounds curve.
//   - Authorization is bearer-token: per-tenant tokens, global serving
//     tokens, and separate admin tokens guarding tenant
//     registration/update (POST/PUT /admin/v1/tenants/{tenant}, with
//     repository XML bodies feeding AddTenant and UpdateTenant).
//   - A client deadline travels in the X-Match-Deadline-Ms header and
//     becomes a context deadline server-side, honored by the same
//     cancellation plumbing as in-process callers; expiry maps to 504.
//   - Typed errors map to statuses: ErrOverloaded → 429 with a
//     Retry-After hint, ErrUnknownTenant → 404, ErrTenantExists → 409,
//     ErrServerClosed → 503, deadline expiry → 504. Error bodies carry
//     machine-readable codes.
//   - GET /metrics exposes Prometheus text (admission counters,
//     per-tenant pairs scored and versions, shard fan-out and
//     candidate-pruning totals); GET /healthz flips to 503 while
//     draining so load balancers stop routing before the drain ends.
//
// On SIGTERM matchd stops accepting connections, lets in-flight HTTP
// requests finish, runs Server.Drain under a configurable budget, and
// exits non-zero if the budget forces an early teardown. cmd/matchd's
// TestDaemonServeAndDrain and TestDaemonTracing drive this protocol
// end to end, and the benchmark under benchmark/ measures it under
// load.
//
// # Durability
//
// The serving layer is memory-resident; durability is delegated to a
// TenantStore (internal/store implements it over one append-friendly
// log file per tenant) attached per service:
//
//	svc, err := match.NewService(repo, match.WithStore(ts))
//	srv := match.NewServer(match.WithServerStore(provider))
//
// The ordering contract: Update appends the transition's diff only
// after the in-memory swap succeeded, so the store never records a
// transition the service refused. An append failure is surfaced from
// Update as a wrapped durability error with the swap kept — requests
// already observe the new snapshot, and the next successful append
// heals the version gap by persisting a fresh base (TenantStore
// implementations must treat already-covered transitions as no-ops
// and gapped ones as heal requests; see the interface docs). With
// WithServerStore, AddTenant persists the registration repository
// eagerly, making a tenant durable from registration rather than from
// its first update, and residency fast-forwards replay already-durable
// transitions into the no-op path.
//
// Recovery inverts the pipeline: load the persisted state, rebuild the
// snapshot at its exact committed Version (so later diffs chain onto
// the log tail), and construct the service over it with
// NewServiceFromSnapshot. The store persists repository state only;
// a recovered service builds its cluster index on first use and
// scores through a fresh engine, exactly like a new one, so recovery
// cannot serve anything a fresh build would not. cmd/matchd wires the
// whole cycle behind -store-dir: eager recovery at boot, periodic and
// shutdown compaction, and per-tenant store gauges on /metrics.
//
// # Tracing
//
// The package participates in internal/obs span tracing through the
// request context, and the contract is purely additive: when the
// caller's ctx carries no span (the common case), every trace
// operation is a zero-allocation no-op and behaviour is identical.
// When a span rides the ctx:
//
//   - Server.Match / Server.MatchBatch record a "queue_wait" span for
//     the admission→execution gap of the group, then one "request"
//     child span per executed request (coalesced duplicates share an
//     execution and therefore a span), tagged with tenant, matcher,
//     delta, and answer count;
//   - Service.Match records "session_build" (session lookup plus cold
//     cost-table construction, with a "cost_tables" child on cold
//     builds), "baseline_wait" when an effectiveness bound waits on
//     the shared baseline, and "search" around the matcher run, tagged
//     with pruning and cache counters;
//   - sharded search records one "shard" span per scatter leg and a
//     "merge" span for the gather.
//
// One batch group traces into one trace: the group leader's ctx is
// the one the spans attach to. Independent of tracing, every Result
// carries the same stage walls in Stats (QueueWait, SessionBuild,
// BaselineWait) so callers that never trace still see the
// decomposition, and ServerStats accumulates queue-wait totals and
// the high-water mark. Span granularity stops at these stages;
// nothing is recorded per scored pair.
package match
