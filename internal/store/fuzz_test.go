package store

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/xmlschema"
)

// legacyFrames returns the index and memo frames of the committed
// golden log, in file order: real bytes of the record types older
// versions wrote and replay now skips.
func legacyFrames(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(legacyLog)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	off := len(magic)
	for off < len(data) {
		typ, _, next, err := nextRecord(data, off)
		if err != nil {
			t.Fatal(err)
		}
		if typ == recIndex || typ == recMemo {
			frames = append(frames, data[off:next])
		}
		off = next
	}
	return frames
}

// encodeTenantFile builds a well-formed store file in memory: the seed
// corpus real archives mutate from. A base, the legacy index and memo
// frames, then a diff that must still chain after them.
func encodeTenantFile(t testing.TB) []byte {
	t.Helper()
	snap := mustSnapshot(t, mustSchema(t, "a", "x", "y"), mustSchema(t, "b", "z"))
	base, err := encodeBase(snap.Version(), 1754600000, snap.Repository())
	if err != nil {
		t.Fatal(err)
	}
	next, err := snap.Add(mustSchema(t, "c", "k"))
	if err != nil {
		t.Fatal(err)
	}
	diffPayload, err := encodeDiff(xmlschema.DiffSnapshots(snap, next))
	if err != nil {
		t.Fatal(err)
	}
	var f bytes.Buffer
	f.WriteString(magic)
	f.Write(frameRecord(recBase, base))
	for _, fr := range legacyFrames(t) {
		f.Write(fr)
	}
	f.Write(frameRecord(recDiff, diffPayload))
	return f.Bytes()
}

// FuzzLoadTenant drives DecodeTenant — the whole read side of the
// store — with arbitrary bytes. The invariants under fuzzing:
//
//   - never panic, whatever the input;
//   - a non-nil error is always one of the typed classes
//     (ErrCorruptRecord wraps, or ErrNoBase);
//   - a returned state always carries a snapshot at version ≥ 1 whose
//     repository re-serializes (it decoded from schema XML, so it must
//     encode back).
func FuzzLoadTenant(f *testing.F) {
	valid := encodeTenantFile(f)
	f.Add(valid)
	golden, err := os.ReadFile(legacyLog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("MSTORE2\n junk"))
	// Mutated header.
	h := append([]byte(nil), valid...)
	h[0] ^= 0xff
	f.Add(h)
	// Flipped CRC of the base record.
	c := append([]byte(nil), valid...)
	c[len(magic)+9] ^= 0x01
	f.Add(c)
	// Truncated mid-record.
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:len(magic)+3])
	// Length prefix inflated beyond the bound.
	l := append([]byte(nil), valid...)
	l[len(magic)+3] = 0xff
	f.Add(l)

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTenant(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrNoBase) {
				t.Fatalf("untyped load error %v", err)
			}
			if ts != nil {
				t.Fatal("state returned alongside an error")
			}
			return
		}
		if ts.Snapshot == nil || ts.Version() < 1 {
			t.Fatalf("accepted state without a valid snapshot: %+v", ts)
		}
		var buf bytes.Buffer
		if werr := xmlschema.WriteRepository(&buf, ts.Snapshot.Repository()); werr != nil {
			t.Fatalf("recovered repository does not re-serialize: %v", werr)
		}
		if ts.Report.TailError != nil && !errors.Is(ts.Report.TailError, ErrCorruptRecord) {
			t.Fatalf("untyped tail error %v", ts.Report.TailError)
		}
	})
}
