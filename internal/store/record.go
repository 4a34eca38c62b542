package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Typed load failures. Callers branch with errors.Is; every corruption
// class wraps ErrCorruptRecord so one check covers them all.
var (
	// ErrCorruptRecord marks a record whose checksum, payload, or replay
	// consistency failed — the file holds bytes that were never written
	// by a correct appender (or were damaged since).
	ErrCorruptRecord = errors.New("store: corrupt record")
	// ErrTruncatedLog marks a file that ends mid-record: a torn final
	// append. The prefix before the torn record is intact.
	ErrTruncatedLog = fmt.Errorf("%w: truncated log", ErrCorruptRecord)
	// ErrBadHeader marks a file too short for, or not starting with, the
	// store magic.
	ErrBadHeader = fmt.Errorf("%w: bad or missing file header", ErrCorruptRecord)
	// ErrNoBase marks a log whose valid prefix holds no base record:
	// nothing can be recovered from it.
	ErrNoBase = errors.New("store: log has no base record")
	// ErrStaleCompact is returned by Compact when the snapshot offered
	// for the new base record is older than the log's committed tail.
	ErrStaleCompact = errors.New("store: compaction snapshot older than log tail")
)

// magic is the 8-byte file header; the trailing newline makes an
// accidental text file fail fast.
const magic = "MSTORE1\n"

// MaxRecordBytes bounds a single record's payload: a length prefix
// beyond it is treated as corruption rather than attempted as an
// allocation. 256 MiB is far above any real tenant record.
const MaxRecordBytes = 1 << 28

// recordOverhead is the framing cost per record: 4-byte length, 1-byte
// type, 4-byte CRC.
const recordOverhead = 9

// Record types. Index and memo records are written by no current
// code; logs compacted by older versions hold them, and replay skips
// them (see the package documentation).
const (
	recBase  byte = 'B'
	recDiff  byte = 'D'
	recIndex byte = 'I'
	recMemo  byte = 'M'
)

// castagnoli is the CRC32C polynomial table (the iSCSI/SSE4.2 one).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameRecord wraps a payload into one committed record frame.
func frameRecord(typ byte, payload []byte) []byte {
	buf := make([]byte, 0, recordOverhead+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// nextRecord parses the record frame starting at data[off], verifying
// length bound and CRC. It returns the record type, the payload, and
// the offset past the record.
func nextRecord(data []byte, off int) (typ byte, payload []byte, next int, err error) {
	if len(data)-off < recordOverhead {
		return 0, nil, off, ErrTruncatedLog
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n > MaxRecordBytes {
		return 0, nil, off, fmt.Errorf("%w: payload length %d exceeds bound", ErrCorruptRecord, n)
	}
	if len(data)-off < recordOverhead+n {
		return 0, nil, off, ErrTruncatedLog
	}
	body := data[off : off+5+n]
	want := binary.LittleEndian.Uint32(data[off+5+n:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorruptRecord, off)
	}
	return data[off+4], data[off+5 : off+5+n], off + recordOverhead + n, nil
}

// encoder builds record payloads from the primitive vocabulary the
// format spec names: uvarint, length-prefixed string, float64 LE.
type encoder struct{ b []byte }

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// decoder consumes a payload; the first malformed read poisons it and
// every later read returns zero values, so decode functions check err
// once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptRecord}, args...)...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at payload offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds payload", n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("short float64 at payload offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// count reads a uvarint element count and sanity-bounds it by the
// bytes remaining (each element costs at least min bytes), so a
// corrupt count cannot drive a huge allocation.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(d.b)-d.off)/min)+1 {
		d.fail("element count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// done checks the payload was consumed exactly.
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(d.b)-d.off)
	}
	return nil
}
