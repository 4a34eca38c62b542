// Package shard partitions a schema repository into K shards and
// serves matching queries over them with scatter-gather search — the
// scaling layer between the versioned snapshot (xmlschema.Snapshot)
// and the matchers.
//
// # Partitioning
//
// A Strategy assigns every repository schema to one of K shards,
// producing a Plan. Two strategies ship:
//
//   - Hash (the default): a stable hash of the schema name. Shards are
//     balanced in expectation, assignment is a pure function of the
//     name, and no corpus analysis is needed.
//   - Cluster: element names are clustered into K groups with the same
//     k-medoids machinery the clustered matcher uses, and each schema
//     joins the shard holding the plurality of its element names.
//     Similar schemas co-locate, so each shard's clustered index covers
//     a tighter name population — at the cost of possible imbalance.
//
// Assignment is by schema name and survives snapshot mutations: a
// replaced schema stays in its shard, and only added schemas are routed
// (deterministically, via the plan's original strategy state). An
// update therefore touches exactly the shards owning the changed
// schemas.
//
// # Scatter-gather search
//
// A Searcher owns one sub-snapshot and one (lazily derived) clustered
// index per shard; every shard scores through the searcher's one
// scorer (Config.Index.Scorer, which the serving layer sets to its
// service scorer). Search fans a
// matching.Problem out across the shards in parallel — each shard
// rebases the problem onto its sub-repository, which transfers the
// already-built cost tables of its schemas by reference — runs the
// caller-built matcher per shard under the request context, and merges
// the per-shard answer sets with matching.Union.
//
// # Merge semantics and parity
//
// Every matcher in this repository searches repository schemas
// independently: the exhaustive enumeration, the beam frontier, and the
// top-k projection are all per-schema, and a mapping never spans
// schemas. Because shards partition the schemas, the union of per-shard
// answer sets at a global threshold δ is bit-identical to the
// unsharded answer set — same answers, same scores, same deterministic
// order — for the exhaustive, parallel, beam and topk families.
//
// The clustered matcher needs one extra invariant: its cluster
// selection depends on the index's medoid set. Shard indexes are
// therefore Derived from a single repository-wide clustering
// (clustered.Index.Derive), so every shard selects clusters against the
// same medoids and restricts candidates exactly as the global index
// would — making sharded clustered search, too, bit-identical to the
// unsharded matcher built over the same IndexConfig. Shard-local
// re-clustering is disabled on derived indexes; quality-driven rebuilds
// happen on the global clustering, after which shards re-derive.
//
// # Incremental updates
//
// Searcher.Apply carries a searcher across a snapshot swap using the
// snapshot diff: unaffected shards keep their sub-snapshot and index
// untouched (shared by pointer with the old searcher,
// which stays valid for in-flight searches), while each affected shard
// rebuilds its sub-snapshot and patches its index with the shard's
// slice of the diff via clustered.Index.Apply. This is the property
// that makes sharding multiply the value of versioned snapshots: a
// one-schema update re-indexes one shard, not the corpus.
package shard
