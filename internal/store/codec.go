// Record payload codecs and the log replay. DecodeTenant is the whole
// read side of the store: it walks the framed records of one tenant
// file, replays base + diff records into a snapshot at the exact
// persisted version, and skips the legacy index and memo records older
// logs hold. Everything here is pure — no file I/O — which is what
// makes the corruption discipline fuzzable.

package store

import (
	"bytes"
	"fmt"

	"repro/internal/xmlschema"
)

const payloadFormat = 1

// encodeSchema serializes one schema as its canonical XML.
func (e *encoder) schema(s *xmlschema.Schema) error {
	var buf bytes.Buffer
	if err := xmlschema.WriteSchema(&buf, s); err != nil {
		return err
	}
	e.str(buf.String())
	return nil
}

// decodeSchema parses one embedded schema XML.
func (d *decoder) schema() *xmlschema.Schema {
	raw := d.str()
	if d.err != nil {
		return nil
	}
	s, err := xmlschema.ReadSchema(bytes.NewReader([]byte(raw)))
	if err != nil {
		d.fail("embedded schema: %v", err)
		return nil
	}
	return s
}

// encodeBase builds a base-record payload: the full repository at one
// version, plus the wall-clock second it was written (the persisted
// "last compaction" stamp; zero is allowed and means unknown).
func encodeBase(version uint64, writtenUnix int64, repo *xmlschema.Repository) ([]byte, error) {
	e := &encoder{}
	e.uvarint(payloadFormat)
	e.uvarint(version)
	e.uvarint(uint64(writtenUnix))
	schemas := repo.Schemas()
	e.uvarint(uint64(len(schemas)))
	for _, s := range schemas {
		if err := e.schema(s); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// decodeBase rebuilds the repository and pins it at the persisted
// version (a fresh lineage continuing the original numbering).
func decodeBase(payload []byte) (*xmlschema.Snapshot, int64, error) {
	d := &decoder{b: payload}
	if f := d.uvarint(); d.err == nil && f != payloadFormat {
		return nil, 0, fmt.Errorf("%w: base format %d", ErrCorruptRecord, f)
	}
	version := d.uvarint()
	written := int64(d.uvarint())
	n := d.count(1)
	repo := xmlschema.NewRepository()
	for i := 0; i < n; i++ {
		s := d.schema()
		if d.err != nil {
			break
		}
		if err := repo.Add(s); err != nil {
			d.fail("base schema %d: %v", i, err)
			break
		}
	}
	if err := d.done(); err != nil {
		return nil, 0, err
	}
	snap, err := xmlschema.RestoreSnapshot(repo, version)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: base: %v", ErrCorruptRecord, err)
	}
	return snap, written, nil
}

// encodeDiff builds a diff-record payload from a pointer-level
// snapshot diff: removed schemas by name, replaced and added schemas
// by content.
func encodeDiff(diff xmlschema.Diff) ([]byte, error) {
	e := &encoder{}
	e.uvarint(payloadFormat)
	e.uvarint(diff.From)
	e.uvarint(diff.To)
	e.uvarint(uint64(len(diff.Removed)))
	for _, s := range diff.Removed {
		e.str(s.Name)
	}
	e.uvarint(uint64(len(diff.Replaced)))
	for _, ch := range diff.Replaced {
		if err := e.schema(ch.New); err != nil {
			return nil, err
		}
	}
	e.uvarint(uint64(len(diff.Added)))
	for _, s := range diff.Added {
		if err := e.schema(s); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// decodedDiff is a diff record in replayable form.
type decodedDiff struct {
	from, to uint64
	removed  []string
	replaced []*xmlschema.Schema
	added    []*xmlschema.Schema
}

func decodeDiff(payload []byte) (*decodedDiff, error) {
	d := &decoder{b: payload}
	if f := d.uvarint(); d.err == nil && f != payloadFormat {
		return nil, fmt.Errorf("%w: diff format %d", ErrCorruptRecord, f)
	}
	dd := &decodedDiff{from: d.uvarint(), to: d.uvarint()}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		dd.removed = append(dd.removed, d.str())
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		dd.replaced = append(dd.replaced, d.schema())
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		dd.added = append(dd.added, d.schema())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if dd.to <= dd.from {
		return nil, fmt.Errorf("%w: diff versions %d → %d", ErrCorruptRecord, dd.from, dd.to)
	}
	return dd, nil
}

// apply replays the diff onto snap, landing exactly on dd.to.
func (dd *decodedDiff) apply(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
	var err error
	if len(dd.removed) > 0 {
		if snap, err = snap.Remove(dd.removed...); err != nil {
			return nil, err
		}
	}
	if len(dd.replaced) > 0 {
		if snap, err = snap.Replace(dd.replaced...); err != nil {
			return nil, err
		}
	}
	if len(dd.added) > 0 {
		if snap, err = snap.Add(dd.added...); err != nil {
			return nil, err
		}
	}
	return snap.AtVersion(dd.to)
}

// LoadReport describes how a load went: how much of the file was
// usable and what was dropped.
type LoadReport struct {
	// Records is the number of committed records replayed (all types).
	Records int
	// DiffsReplayed counts the diff records applied after the last base.
	DiffsReplayed int
	// DroppedBytes is the length of the invalid suffix, zero for a
	// clean file.
	DroppedBytes int64
	// TailError is the typed reason the walk stopped before EOF
	// (ErrTruncatedLog / ErrCorruptRecord wrap), nil for a clean file.
	TailError error
}

// TenantState is the recovered durable state of one tenant.
type TenantState struct {
	// Name is the tenant name (empty when decoded from raw bytes).
	Name string
	// Snapshot is the recovered repository snapshot at exactly the last
	// committed version.
	Snapshot *xmlschema.Snapshot
	// LastCompaction is the unix-seconds stamp of the base record the
	// snapshot was replayed from (0: unknown).
	LastCompaction int64
	// Report describes the load itself.
	Report LoadReport
}

// Version returns the recovered snapshot version.
func (ts *TenantState) Version() uint64 { return ts.Snapshot.Version() }

// decodeTail is the record walk shared by full loads and the appender's
// tail scan: it visits every committed record of data (header already
// expected), calling visit per record, and returns the byte length of
// the valid prefix plus the typed error that ended the walk early (nil
// at clean EOF). visit returning an error marks the current record
// invalid — the prefix ends before it.
func decodeTail(data []byte, visit func(typ byte, payload []byte) error) (validLen int64, tailErr error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return 0, ErrBadHeader
	}
	off := len(magic)
	for off < len(data) {
		typ, payload, next, err := nextRecord(data, off)
		if err != nil {
			return int64(off), err
		}
		if err := visit(typ, payload); err != nil {
			return int64(off), err
		}
		off = next
	}
	return int64(off), nil
}

// DecodeTenant recovers a tenant state from the raw bytes of one store
// file. It never panics on arbitrary input; it returns a state only
// when a base record and every chained diff of the valid prefix
// replayed consistently, and classifies everything else under the
// typed errors of this package. A file whose suffix is damaged still
// yields the state of its valid prefix, with Report.TailError naming
// the damage.
func DecodeTenant(data []byte) (*TenantState, error) {
	ts := &TenantState{}
	var snap *xmlschema.Snapshot
	validLen, tailErr := decodeTail(data, func(typ byte, payload []byte) error {
		switch typ {
		case recBase:
			s, written, err := decodeBase(payload)
			if err != nil {
				return err
			}
			// A base resets replay; versions may only move forward.
			if snap != nil && s.Version() < snap.Version() {
				return fmt.Errorf("%w: base record rewinds version %d to %d",
					ErrCorruptRecord, snap.Version(), s.Version())
			}
			snap = s
			ts.LastCompaction = written
			ts.Report.DiffsReplayed = 0
		case recDiff:
			dd, err := decodeDiff(payload)
			if err != nil {
				return err
			}
			if snap == nil {
				return fmt.Errorf("%w: diff record before any base", ErrCorruptRecord)
			}
			if dd.from != snap.Version() {
				return fmt.Errorf("%w: diff chains from version %d, log is at %d",
					ErrCorruptRecord, dd.from, snap.Version())
			}
			next, err := dd.apply(snap)
			if err != nil {
				return fmt.Errorf("%w: diff replay: %v", ErrCorruptRecord, err)
			}
			snap = next
			ts.Report.DiffsReplayed++
		case recIndex, recMemo:
			// Legacy warm-start hints: their frame passed the CRC check,
			// and nothing reads their payload any more.
		default:
			return fmt.Errorf("%w: unknown record type %q", ErrCorruptRecord, typ)
		}
		ts.Report.Records++
		return nil
	})
	ts.Report.DroppedBytes = int64(len(data)) - validLen
	ts.Report.TailError = tailErr
	if tailErr != nil && ts.Report.Records == 0 && validLen == 0 {
		// Not even the header was usable.
		return nil, tailErr
	}
	if snap == nil {
		if tailErr != nil {
			return nil, tailErr
		}
		return nil, ErrNoBase
	}
	ts.Snapshot = snap
	return ts, nil
}
