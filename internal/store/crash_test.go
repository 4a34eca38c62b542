package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/xmlschema"
)

// TestCrashRecoveryProperty is the crash-safety property test `make
// store-prop` runs (with -race -shuffle=on): a writer is killed at a
// random byte offset mid-append, the store is reopened like a fresh
// process would, and the recovered snapshot must be bit-identical to
// the last fully-committed version — every time, at every offset.
func TestCrashRecoveryProperty(t *testing.T) {
	const rounds = 60
	rng := rand.New(rand.NewSource(0x5eed))
	dir := t.TempDir()

	open := func() *Store {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	live := mustSnapshot(t,
		mustSchema(t, "a", "x", "y"),
		mustSchema(t, "b", "z"),
	)
	if err := st.Tenant("t").SaveBase(live.Version(), live.Repository()); err != nil {
		t.Fatal(err)
	}
	// committed mirrors what the log has durably acknowledged.
	committed := live
	gen := 0

	mutate := func(s *xmlschema.Snapshot) *xmlschema.Snapshot {
		gen++
		var next *xmlschema.Snapshot
		var err error
		switch gen % 3 {
		case 0:
			next, err = s.Add(mustSchema(t, nameOf("g", gen), "l1", "l2"))
		case 1:
			next, err = s.Replace(mustSchema(t, "a", "x", nameOf("leaf", gen)))
		default:
			// Compound update: replace + add in one transition.
			if next, err = s.Replace(mustSchema(t, "b", "z", nameOf("zz", gen))); err == nil {
				next, err = next.Add(mustSchema(t, nameOf("h", gen)))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	for round := 0; round < rounds; round++ {
		next := mutate(live)
		diff := xmlschema.DiffSnapshots(live, next)

		// Kill the writer after a random number of bytes of this append
		// (0 = before the first byte; large = maybe no fault at all).
		budget := rng.Intn(200)
		st.wrapWriter = func(_ string, w io.Writer) io.Writer {
			return &FailingWriter{W: w, Remaining: budget}
		}
		err := st.Tenant("t").AppendDiff(next, diff)
		st.wrapWriter = nil

		if err == nil {
			committed = next
		} else if !errors.Is(err, ErrInjectedFault) && !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("round %d: unexpected append error %v", round, err)
		}
		live = next

		// "Crash": drop all in-memory state, reopen from disk alone.
		st = open()
		ts, lerr := st.Tenant("t").Load()
		if lerr != nil {
			t.Fatalf("round %d: recovery load: %v", round, lerr)
		}
		if ts.Version() != committed.Version() {
			t.Fatalf("round %d (fault after %d bytes): recovered version %d, committed %d",
				round, budget, ts.Version(), committed.Version())
		}
		if got, want := repoBytes(t, ts.Snapshot.Repository()), repoBytes(t, committed.Repository()); !bytes.Equal(got, want) {
			t.Fatalf("round %d: recovered repository not bit-identical to committed version %d",
				round, committed.Version())
		}

		// Re-apply the possibly-torn transition without faults: the store
		// must converge (append or gap-heal) so the next round chains.
		if err := st.Tenant("t").AppendDiff(live, xmlschema.DiffSnapshots(committed, live)); err != nil {
			t.Fatalf("round %d: repair append: %v", round, err)
		}
		committed = live

		// Occasionally compact mid-history, also under fault injection.
		if round%11 == 5 {
			budget := rng.Intn(300)
			st.wrapWriter = func(_ string, w io.Writer) io.Writer {
				return &FailingWriter{W: w, Remaining: budget}
			}
			cerr := st.Tenant("t").Compact(committed.Version(), committed.Repository())
			st.wrapWriter = nil
			if cerr != nil && !errors.Is(cerr, ErrInjectedFault) && !errors.Is(cerr, io.ErrShortWrite) {
				t.Fatalf("round %d: compact error %v", round, cerr)
			}
			// Temp-and-rename: a torn compact must leave the old file whole.
			st = open()
			ts, lerr := st.Tenant("t").Load()
			if lerr != nil {
				t.Fatalf("round %d: load after compact fault: %v", round, lerr)
			}
			if ts.Version() != committed.Version() {
				t.Fatalf("round %d: compact (fault after %d bytes) moved version to %d, want %d",
					round, budget, ts.Version(), committed.Version())
			}
		}
	}
}

func nameOf(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{digits[n%10]}, b...)
		n /= 10
	}
	return prefix + string(b)
}

// TestFailingWriter pins the seam's own contract: pass-through until
// the budget, torn at exactly the boundary, failing ever after.
func TestFailingWriter(t *testing.T) {
	var buf bytes.Buffer
	fw := &FailingWriter{W: &buf, Remaining: 5}
	n, err := fw.Write([]byte("abc"))
	if n != 3 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	n, err = fw.Write([]byte("defg"))
	if n != 2 || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("crossing budget: n=%d err=%v", n, err)
	}
	if buf.String() != "abcde" {
		t.Fatalf("written %q, want %q", buf.String(), "abcde")
	}
	if n, err = fw.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("after budget: n=%d err=%v", n, err)
	}
}
