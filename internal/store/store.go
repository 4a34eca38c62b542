package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/xmlschema"
)

// fileExt is the per-tenant file suffix.
const fileExt = ".mstore"

// Options configures a Store.
type Options struct {
	// Sync fsyncs the tenant file after every append and rewrite, so a
	// record reported committed survives power loss, not just process
	// death. Off, commits survive crashes of the process only.
	Sync bool
}

// Store is a directory of single-file tenant logs. Open it once and
// share it; Tenant handles are cached and safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	tenants map[string]*Tenant

	// wrapWriter, when set, wraps every file writer the store appends
	// or rewrites through — the crash-injection seam the property tests
	// drive with a FailingWriter. Production code never sets it.
	wrapWriter func(tenant string, w io.Writer) io.Writer
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, opt: opt, tenants: make(map[string]*Tenant)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Tenant returns the handle of one tenant's log (creating no file
// until the first write).
func (s *Store) Tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &Tenant{store: s, name: name, path: filepath.Join(s.dir, escapeTenant(name)+fileExt)}
		s.tenants[name] = t
	}
	return t
}

// Tenants lists the tenant names that have a log file, sorted.
func (s *Store) Tenants() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), fileExt) {
			continue
		}
		name, err := unescapeTenant(strings.TrimSuffix(e.Name(), fileExt))
		if err != nil {
			continue // not a store file of ours
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// escapeTenant maps a tenant name onto a safe, reversible file stem:
// ASCII letters, digits, '.', '_' and '-' pass through, everything
// else becomes %XX per byte.
func escapeTenant(name string) string {
	const hex = "0123456789abcdef"
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
	}
	return b.String()
}

func unescapeTenant(stem string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(stem); i++ {
		c := stem[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(stem) {
			return "", fmt.Errorf("store: short escape in %q", stem)
		}
		hi, err1 := unhex(stem[i+1])
		lo, err2 := unhex(stem[i+2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("store: bad escape in %q", stem)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func unhex(c byte) (byte, error) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', nil
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, nil
	}
	return 0, fmt.Errorf("store: bad hex digit %q", c)
}

// Tenant is the handle of one tenant's log file. All operations
// serialize on the tenant; the cached tail state makes appends O(one
// record) after the first scan.
type Tenant struct {
	store *Store
	name  string
	path  string

	mu sync.Mutex
	// Cached tail of the file, valid while tailKnown. A failed write
	// invalidates it; the next operation rescans (and truncates any
	// torn suffix).
	tailKnown      bool
	tailVersion    uint64 // last committed snapshot version; 0 = no base
	validLen       int64  // bytes of the committed prefix
	records        int    // committed records
	diffsSinceBase int    // diff records after the last base
	lastCompaction int64  // unix seconds of the last base record write
	gapHeals       int64  // AppendDiff calls healed by a full base rewrite
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Path returns the tenant's log file path.
func (t *Tenant) Path() string { return t.path }

// scanTailLocked (re)builds the cached tail state by walking the file's
// committed records. A missing file is a valid empty log. Records are
// CRC-verified and version-chained exactly like a full load, so the
// appender never chains onto a prefix the loader would reject.
func (t *Tenant) scanTailLocked() error {
	t.tailKnown = false
	t.tailVersion, t.validLen, t.records, t.diffsSinceBase, t.lastCompaction = 0, 0, 0, 0, 0
	data, err := os.ReadFile(t.path)
	if errors.Is(err, fs.ErrNotExist) {
		t.tailKnown = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	validLen, _ := decodeTail(data, func(typ byte, payload []byte) error {
		switch typ {
		case recBase:
			snap, written, err := decodeBase(payload)
			if err != nil {
				return err
			}
			if t.tailVersion != 0 && snap.Version() < t.tailVersion {
				return fmt.Errorf("%w: base record rewinds version", ErrCorruptRecord)
			}
			t.tailVersion = snap.Version()
			t.diffsSinceBase = 0
			t.lastCompaction = written
		case recDiff:
			dd, err := decodeDiff(payload)
			if err != nil {
				return err
			}
			if t.tailVersion == 0 || dd.from != t.tailVersion {
				return fmt.Errorf("%w: diff does not chain", ErrCorruptRecord)
			}
			t.tailVersion = dd.to
			t.diffsSinceBase++
		case recIndex, recMemo:
			// Legacy hints: CRC-checked by the walk, skipped like Load.
		default:
			return fmt.Errorf("%w: unknown record type %q", ErrCorruptRecord, typ)
		}
		t.records++
		return nil
	})
	t.validLen = validLen
	t.tailKnown = true
	return nil
}

// ensureTailLocked primes the tail cache on first use.
func (t *Tenant) ensureTailLocked() error {
	if t.tailKnown {
		return nil
	}
	return t.scanTailLocked()
}

// appendRecordLocked appends one framed record after truncating any
// invalid suffix, updating the tail cache only when every byte
// committed. The record is written in a single Write call, so an
// injected fault tears at most one record.
func (t *Tenant) appendRecordLocked(frame []byte) error {
	if err := t.ensureTailLocked(); err != nil {
		return err
	}
	fresh := t.validLen == 0
	flags := os.O_WRONLY | os.O_CREATE
	f, err := os.OpenFile(t.path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	defer f.Close()
	if fresh {
		// An empty (or headerless/garbage) log restarts from scratch.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("store: %s: %w", t.name, err)
		}
	} else if fi, err := f.Stat(); err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	} else if fi.Size() != t.validLen {
		// A torn or damaged suffix from an earlier crash: drop it so the
		// new record chains onto the committed prefix.
		if err := f.Truncate(t.validLen); err != nil {
			return fmt.Errorf("store: %s: %w", t.name, err)
		}
	}
	var w io.Writer = f
	if t.store.wrapWriter != nil {
		w = t.store.wrapWriter(t.name, w)
	}
	written := 0
	if fresh {
		n, err := w.Write([]byte(magic))
		written += n
		if err == nil && n < len(magic) {
			err = io.ErrShortWrite
		}
		if err != nil {
			t.tailKnown = false
			return fmt.Errorf("store: %s: header: %w", t.name, err)
		}
	} else if _, err := f.Seek(t.validLen, io.SeekStart); err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	n, err := w.Write(frame)
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// The file may hold a torn record now; the cache is dirty and the
		// next operation rescans + truncates.
		t.tailKnown = false
		return fmt.Errorf("store: %s: append: %w", t.name, err)
	}
	if t.store.opt.Sync {
		if err := f.Sync(); err != nil {
			t.tailKnown = false
			return fmt.Errorf("store: %s: sync: %w", t.name, err)
		}
	}
	if fresh {
		t.validLen = int64(len(magic))
	}
	t.validLen += int64(len(frame))
	t.records++
	return nil
}

// rewriteLocked atomically replaces the whole log file with header +
// the given frames, via temp file + rename.
func (t *Tenant) rewriteLocked(frames ...[]byte) error {
	tmp := t.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	var w io.Writer = f
	if t.store.wrapWriter != nil {
		w = t.store.wrapWriter(t.name, w)
	}
	size := int64(0)
	writeAll := func(b []byte) error {
		n, err := w.Write(b)
		size += int64(n)
		if err == nil && n < len(b) {
			err = io.ErrShortWrite
		}
		return err
	}
	err = writeAll([]byte(magic))
	for _, fr := range frames {
		if err != nil {
			break
		}
		err = writeAll(fr)
	}
	if err == nil && t.store.opt.Sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %s: rewrite: %w", t.name, err)
	}
	if err := os.Rename(tmp, t.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	t.validLen = size
	t.records = len(frames)
	return nil
}

// SaveBase replaces the tenant's log with a single base record holding
// repo at the given version — the registration write of a fresh tenant
// and the healing write of a log with a version gap. It implements the
// match.TenantStore contract.
func (t *Tenant) SaveBase(version uint64, repo *xmlschema.Repository) error {
	if repo == nil {
		return fmt.Errorf("store: %s: nil repository", t.name)
	}
	if version < 1 {
		return fmt.Errorf("store: %s: base version %d < 1", t.name, version)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.saveBaseLocked(version, repo)
}

func (t *Tenant) saveBaseLocked(version uint64, repo *xmlschema.Repository) error {
	now := time.Now().Unix()
	payload, err := encodeBase(version, now, repo)
	if err != nil {
		return fmt.Errorf("store: %s: %w", t.name, err)
	}
	if err := t.rewriteLocked(frameRecord(recBase, payload)); err != nil {
		t.tailKnown = false
		return err
	}
	t.tailKnown = true
	t.tailVersion = version
	t.diffsSinceBase = 0
	t.lastCompaction = now
	return nil
}

// AppendDiff makes the transition to snapshot next durable. It
// implements the match.TenantStore contract and is deliberately
// idempotent and self-healing, because the serving layer replays
// transitions in ways a naive appender would double-log:
//
//   - diff.To ≤ the committed tail version: the transition is already
//     durable (e.g. a fast-forward after residency eviction re-applies
//     an update the log has) — no-op;
//   - diff.From == the tail version: the common case, one appended
//     diff record;
//   - anything else is a version gap (the log missed transitions, e.g.
//     updates applied while durability was off, or a healed-from-
//     corruption prefix): the log is rewritten with a fresh base at
//     next's version, so it is correct again at the cost of one full
//     snapshot write.
func (t *Tenant) AppendDiff(next *xmlschema.Snapshot, diff xmlschema.Diff) error {
	if next == nil {
		return fmt.Errorf("store: %s: nil snapshot", t.name)
	}
	if diff.To != next.Version() {
		return fmt.Errorf("store: %s: diff leads to version %d, snapshot is %d",
			t.name, diff.To, next.Version())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ensureTailLocked(); err != nil {
		return err
	}
	switch {
	case t.tailVersion != 0 && diff.To <= t.tailVersion:
		return nil
	case t.tailVersion != 0 && diff.From == t.tailVersion:
		payload, err := encodeDiff(diff)
		if err != nil {
			return fmt.Errorf("store: %s: %w", t.name, err)
		}
		if err := t.appendRecordLocked(frameRecord(recDiff, payload)); err != nil {
			return err
		}
		t.tailVersion = diff.To
		t.diffsSinceBase++
		return nil
	default:
		if t.tailVersion != 0 {
			t.gapHeals++
		}
		return t.saveBaseLocked(next.Version(), next.Repository())
	}
}

// Compact rewrites the log as one fresh base record at the given
// version, atomically. A version behind the committed tail fails with
// ErrStaleCompact — the caller's snapshot is older than what the log
// already holds, and compaction must never rewind durable state.
func (t *Tenant) Compact(version uint64, repo *xmlschema.Repository) error {
	if repo == nil {
		return fmt.Errorf("store: %s: nil repository", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ensureTailLocked(); err != nil {
		return err
	}
	if version < t.tailVersion {
		return fmt.Errorf("store: %s: compact at version %d, log at %d: %w",
			t.name, version, t.tailVersion, ErrStaleCompact)
	}
	return t.saveBaseLocked(version, repo)
}

// Load reads and replays the tenant's log (see DecodeTenant). The tail
// cache adopts the load's (authoritative) view of the valid prefix, so
// a later append truncates exactly what the loader would have dropped.
func (t *Tenant) Load() (*TenantState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := os.ReadFile(t.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: %s: %w", t.name, ErrNoBase)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", t.name, err)
	}
	ts, err := DecodeTenant(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", t.name, err)
	}
	ts.Name = t.name
	// Adopt the replay's tail: it enforces strictly more than the scan
	// (full schema decode), so its valid prefix is the safe one.
	if err := t.scanTailLocked(); err == nil && ts.Report.TailError != nil {
		replayValid := int64(len(data)) - ts.Report.DroppedBytes
		if replayValid < t.validLen {
			t.validLen = replayValid
		}
	}
	return ts, nil
}

// CompactSelf compacts the log from its own contents: load, then
// rewrite as a fresh base. It serves the offline path — compacting a
// tenant whose service is not resident.
func (t *Tenant) CompactSelf() error {
	ts, err := t.Load()
	if err != nil {
		return err
	}
	return t.Compact(ts.Version(), ts.Snapshot.Repository())
}

// Stats is a point-in-time view of one tenant's log file.
type Stats struct {
	// Tenant is the tenant name.
	Tenant string
	// SizeBytes is the committed log length in bytes (invalid suffixes
	// excluded), 0 for a tenant with no file yet.
	SizeBytes int64
	// Records counts committed records; DiffRecords those after the
	// last base — the quantity compaction thresholds watch.
	Records     int
	DiffRecords int
	// TailVersion is the last committed snapshot version (0: no base).
	TailVersion uint64
	// LastCompactionUnix is the unix-seconds stamp of the last base
	// record write (0: unknown).
	LastCompactionUnix int64
	// GapHeals counts AppendDiff calls that had to heal a version gap
	// with a full base rewrite.
	GapHeals int64
}

// Stats scans the log if needed and reports its committed shape.
func (t *Tenant) Stats() (Stats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ensureTailLocked(); err != nil {
		return Stats{}, err
	}
	return Stats{
		Tenant:             t.name,
		SizeBytes:          t.validLen,
		Records:            t.records,
		DiffRecords:        t.diffsSinceBase,
		TailVersion:        t.tailVersion,
		LastCompactionUnix: t.lastCompaction,
		GapHeals:           t.gapHeals,
	}, nil
}

// FailingWriter wraps a writer and injects a write fault after a given
// number of bytes: the test seam crash-safety properties are driven
// through (Store.wrapWriter). Writes pass through until Remaining is
// exhausted; the write crossing the boundary is torn at exactly that
// byte and fails, like a crash mid-write.
type FailingWriter struct {
	W         io.Writer
	Remaining int
}

// ErrInjectedFault is the failure a FailingWriter injects.
var ErrInjectedFault = errors.New("store: injected write fault")

// Write implements io.Writer with the injected fault.
func (f *FailingWriter) Write(p []byte) (int, error) {
	if f.Remaining <= 0 {
		return 0, ErrInjectedFault
	}
	if len(p) <= f.Remaining {
		n, err := f.W.Write(p)
		f.Remaining -= n
		return n, err
	}
	n, err := f.W.Write(p[:f.Remaining])
	f.Remaining -= n
	if err == nil {
		err = ErrInjectedFault
	}
	return n, err
}
