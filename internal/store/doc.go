// Package store is the durable tenant store of the matching layer: an
// append-friendly, single-file-per-tenant log that persists a tenant's
// repository snapshot and its incremental diff history — everything a
// restarted process needs to recover the tenant to its exact pre-crash
// Version(). Nothing derived from the repository is persisted: cluster
// indexes rebuild on first use and the scoring engine keeps no state.
//
// # File format
//
// Every tenant lives in one file, <dir>/<escaped-tenant>.mstore:
//
//	header:  8 bytes  "MSTORE1\n"
//	records: repeated until EOF
//
// and every record is independently framed and checksummed:
//
//	uint32 LE  payload length N (bounded by MaxRecordBytes)
//	byte       record type: 'B' base, 'D' diff ('I', 'M': legacy)
//	N bytes    payload
//	uint32 LE  CRC32C (Castagnoli) over the preceding 5+N bytes
//
// A record is committed only when all of its bytes (including the
// trailing CRC) reached the file. The loader walks records front to
// back; the first frame that is short (ErrTruncatedLog), fails its
// CRC, or decodes inconsistently (ErrCorruptRecord) ends the walk, and
// the state recovered from the valid prefix is served instead — a torn
// tail or a bit flip can cost the last uncommitted records, never
// correctness. Appenders truncate the file back to the valid prefix
// before writing, so a crashed append does not wedge the log.
//
// Payloads use uvarint/length-prefixed-string/float64-LE primitives;
// schemas are embedded as their canonical XML (xmlschema.WriteSchema),
// so the store shares one serialization with the archive tooling.
//
//	base  ('B'): fmt=1, snapshot version, unix-seconds written,
//	             schema count, count × schema XML (repository order)
//	diff  ('D'): fmt=1, from version, to version,
//	             removed count × name,
//	             replaced count × schema XML (the new schema),
//	             added count × schema XML
//
// # Replay and versions
//
// The latest base record resets replay; each following diff must chain
// exactly (diff.From == current version) and is applied with
// Snapshot.Remove/Replace/Add, then pinned to diff.To with AtVersion —
// one logical update may bump the live version by more than one
// (compound mutations derive intermediate snapshots), and replay must
// land on the same number. A diff that does not chain is corruption:
// the walk stops there.
//
// # Legacy records
//
// Logs compacted by older versions also hold index ('I') records
// (cluster-index state) and memo ('M') records (a slice of a scoring
// memo), written after a base as warm-start hints. Replay and the
// appender's tail scan still require their frames to pass the length
// bound and CRC like any other record — a damaged one ends the valid
// prefix — and then skip them without reading the payload, so the
// diffs after them replay and new diffs chain after them. No current
// code writes either type; the next compaction drops them.
//
// # Compaction
//
// AppendDiff grows the file by one diff record per update. Compact
// rewrites the file as header + one fresh base record via
// write-to-temp-and-rename, so readers and
// crashes only ever observe the old complete file or the new one.
// Compacting with a snapshot older than the log tail fails with
// ErrStaleCompact — compaction must never rewind durable state.
//
// # Concurrency
//
// A Store and its Tenant handles are safe for concurrent use; all
// operations on one tenant serialize on the tenant's mutex. Different
// tenants are fully independent (one file each).
package store
