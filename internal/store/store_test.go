package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/xmlschema"
)

func mustSchema(t testing.TB, name string, leaves ...string) *xmlschema.Schema {
	t.Helper()
	root := xmlschema.NewElement(name + "Root")
	for _, l := range leaves {
		root.Add(xmlschema.NewElement(l))
	}
	s, err := xmlschema.NewSchema(name, root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSnapshot(t testing.TB, schemas ...*xmlschema.Schema) *xmlschema.Snapshot {
	t.Helper()
	repo := xmlschema.NewRepository()
	for _, s := range schemas {
		if err := repo.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := xmlschema.NewSnapshot(repo)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// repoBytes is the canonical serialized form used for bit-identity
// assertions between recovered and live repositories.
func repoBytes(t testing.TB, repo *xmlschema.Repository) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xmlschema.WriteRepository(&buf, repo); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTestStore(t testing.TB) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundTripBaseAndDiffs(t *testing.T) {
	st := openTestStore(t)
	ten := st.Tenant("acme")

	snap := mustSnapshot(t, mustSchema(t, "a", "x", "y"), mustSchema(t, "b", "z"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}

	// A few updates: add, replace, remove — each appended as one diff.
	next, err := snap.Add(mustSchema(t, "c", "k1", "k2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}
	snap = next
	if next, err = snap.Replace(mustSchema(t, "b", "z", "z2")); err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}
	snap = next
	if next, err = snap.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}
	snap = next

	ts, err := ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Name != "acme" {
		t.Fatalf("recovered name %q", ts.Name)
	}
	if ts.Version() != snap.Version() {
		t.Fatalf("recovered version %d, live %d", ts.Version(), snap.Version())
	}
	if got, want := repoBytes(t, ts.Snapshot.Repository()), repoBytes(t, snap.Repository()); !bytes.Equal(got, want) {
		t.Fatalf("recovered repository differs:\n%s\nwant:\n%s", got, want)
	}
	if ts.Report.TailError != nil || ts.Report.DroppedBytes != 0 {
		t.Fatalf("clean log reported damage: %+v", ts.Report)
	}
	if ts.Report.DiffsReplayed != 3 {
		t.Fatalf("DiffsReplayed = %d, want 3", ts.Report.DiffsReplayed)
	}

	// The recovered lineage keeps counting past the persisted version.
	again, err := ts.Snapshot.Add(mustSchema(t, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Version() <= snap.Version() {
		t.Fatalf("recovered lineage version %d not past %d", again.Version(), snap.Version())
	}
}

func TestAppendDiffNoopAndGapHeal(t *testing.T) {
	st := openTestStore(t)
	ten := st.Tenant("t")

	snap := mustSnapshot(t, mustSchema(t, "a", "x"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	next, err := snap.Add(mustSchema(t, "b"))
	if err != nil {
		t.Fatal(err)
	}
	diff := xmlschema.DiffSnapshots(snap, next)
	if err := ten.AppendDiff(next, diff); err != nil {
		t.Fatal(err)
	}
	before, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// Replaying the same transition (fast-forward path) must be a no-op.
	if err := ten.AppendDiff(next, diff); err != nil {
		t.Fatal(err)
	}
	after, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("idempotent append changed the log: %+v -> %+v", before, after)
	}

	// A version gap (skipped transitions) heals with a full base.
	gap1, err := next.Add(mustSchema(t, "c"))
	if err != nil {
		t.Fatal(err)
	}
	gap2, err := gap1.Add(mustSchema(t, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(gap2, xmlschema.DiffSnapshots(gap1, gap2)); err != nil {
		t.Fatal(err)
	}
	stats, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GapHeals != 1 {
		t.Fatalf("GapHeals = %d, want 1", stats.GapHeals)
	}
	if stats.TailVersion != gap2.Version() || stats.DiffRecords != 0 {
		t.Fatalf("gap heal left stats %+v", stats)
	}
	ts, err := ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != gap2.Version() {
		t.Fatalf("recovered %d after gap heal, want %d", ts.Version(), gap2.Version())
	}
	if !bytes.Equal(repoBytes(t, ts.Snapshot.Repository()), repoBytes(t, gap2.Repository())) {
		t.Fatal("gap-healed repository differs from live")
	}
}

func TestCorruptSuffixFallsBackToPrefix(t *testing.T) {
	st := openTestStore(t)
	ten := st.Tenant("t")

	snap := mustSnapshot(t, mustSchema(t, "a", "x"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	next, err := snap.Add(mustSchema(t, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(ten.Path())
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip in the last record: load recovers the base, typed error.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x40
	if err := os.WriteFile(ten.Path(), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := st.Tenant("t").Load() // same handle; cache rescans on load
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != snap.Version() {
		t.Fatalf("recovered %d from flipped tail, want base %d", ts.Version(), snap.Version())
	}
	if !errors.Is(ts.Report.TailError, ErrCorruptRecord) {
		t.Fatalf("TailError = %v, want ErrCorruptRecord", ts.Report.TailError)
	}
	if ts.Report.DroppedBytes == 0 {
		t.Fatal("DroppedBytes = 0 for damaged tail")
	}

	// Truncation mid-record: same fallback, truncation-typed error.
	if err := os.WriteFile(ten.Path(), data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err = ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != snap.Version() {
		t.Fatalf("recovered %d from truncated tail, want base %d", ts.Version(), snap.Version())
	}
	if !errors.Is(ts.Report.TailError, ErrTruncatedLog) {
		t.Fatalf("TailError = %v, want ErrTruncatedLog", ts.Report.TailError)
	}

	// Appending over the damaged file truncates the torn suffix and
	// chains onto the intact prefix.
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}
	ts, err = ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != next.Version() || ts.Report.TailError != nil {
		t.Fatalf("repaired log recovered %d (tail err %v), want clean %d",
			ts.Version(), ts.Report.TailError, next.Version())
	}
}

func TestWholeFileGarbage(t *testing.T) {
	st := openTestStore(t)
	ten := st.Tenant("t")
	if err := os.WriteFile(ten.Path(), []byte("<xml>not a store</xml>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ten.Load(); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Load over garbage = %v, want ErrBadHeader", err)
	}
	// Header intact but no base record at all.
	if err := os.WriteFile(ten.Path(), []byte(magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ten.Load(); !errors.Is(err, ErrNoBase) {
		t.Fatalf("Load over empty log = %v, want ErrNoBase", err)
	}
	// A garbage file is recoverable by a fresh base write.
	if err := os.WriteFile(ten.Path(), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, mustSchema(t, "a"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	if ts, err := ten.Load(); err != nil || ts.Version() != snap.Version() {
		t.Fatalf("Load after recovery write: %v", err)
	}
}

func TestLoadMissingTenant(t *testing.T) {
	st := openTestStore(t)
	if _, err := st.Tenant("nope").Load(); !errors.Is(err, ErrNoBase) {
		t.Fatalf("Load of absent tenant = %v, want ErrNoBase", err)
	}
}

func TestCompactAndStaleCompact(t *testing.T) {
	st := openTestStore(t)
	ten := st.Tenant("t")

	snap := mustSnapshot(t, mustSchema(t, "a", "x"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	var err error
	for _, name := range []string{"b", "c", "d"} {
		next, aerr := snap.Add(mustSchema(t, name))
		if aerr != nil {
			t.Fatal(aerr)
		}
		if err = ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
			t.Fatal(err)
		}
		snap = next
	}
	grown, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if grown.DiffRecords != 3 {
		t.Fatalf("DiffRecords = %d, want 3", grown.DiffRecords)
	}

	// Compacting with an older snapshot must refuse.
	old := mustSnapshot(t, mustSchema(t, "a", "x"))
	if err := ten.Compact(old.Version(), old.Repository()); !errors.Is(err, ErrStaleCompact) {
		t.Fatalf("stale compact = %v, want ErrStaleCompact", err)
	}

	if err := ten.Compact(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	compacted, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.DiffRecords != 0 || compacted.TailVersion != snap.Version() {
		t.Fatalf("post-compact stats %+v", compacted)
	}
	if compacted.SizeBytes >= grown.SizeBytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", grown.SizeBytes, compacted.SizeBytes)
	}
	if compacted.LastCompactionUnix == 0 {
		t.Fatal("LastCompactionUnix not stamped")
	}
	ts, err := ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != snap.Version() {
		t.Fatalf("recovered %d post-compact, want %d", ts.Version(), snap.Version())
	}
	if !bytes.Equal(repoBytes(t, ts.Snapshot.Repository()), repoBytes(t, snap.Repository())) {
		t.Fatal("compacted repository differs from live")
	}

	// CompactSelf keeps the log loadable and at the same version.
	next, err := snap.Add(mustSchema(t, "e"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(snap, next)); err != nil {
		t.Fatal(err)
	}
	if err := ten.CompactSelf(); err != nil {
		t.Fatal(err)
	}
	if ts, err = ten.Load(); err != nil || ts.Version() != next.Version() {
		t.Fatalf("CompactSelf: load %v version %d, want %d", err, ts.Version(), next.Version())
	}
}

func TestTenantNameEscapingAndListing(t *testing.T) {
	names := []string{"plain", "has space", "slash/../dot", "uni·code", "UPPER_low-er.9"}
	st := openTestStore(t)
	snap := mustSnapshot(t, mustSchema(t, "a"))
	for _, n := range names {
		if err := st.Tenant(n).SaveBase(snap.Version(), snap.Repository()); err != nil {
			t.Fatalf("SaveBase(%q): %v", n, err)
		}
	}
	// Escaped stems must stay inside the store directory.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("%d files for %d tenants", len(entries), len(names))
	}
	for _, e := range entries {
		if filepath.Dir(filepath.Join(st.Dir(), e.Name())) != filepath.Clean(st.Dir()) {
			t.Fatalf("tenant file escaped the store dir: %q", e.Name())
		}
	}
	got, err := st.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), names...)
	sortStrings(want)
	if len(got) != len(want) {
		t.Fatalf("Tenants() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tenants() = %v, want %v", got, want)
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestCompoundDiffReplaysToExactVersion(t *testing.T) {
	// One logical update bumping the version by three (remove + replace
	// + add, the admin full-replacement shape): replay must land on the
	// same version number, not just the same content.
	st := openTestStore(t)
	ten := st.Tenant("t")

	snap := mustSnapshot(t, mustSchema(t, "a", "x"), mustSchema(t, "b", "y"))
	if err := ten.SaveBase(snap.Version(), snap.Repository()); err != nil {
		t.Fatal(err)
	}
	s1, err := snap.Remove("a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s1.Replace(mustSchema(t, "b", "y", "y2"))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := s2.Add(mustSchema(t, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Version() != snap.Version()+3 {
		t.Fatalf("compound update version %d, want %d", s3.Version(), snap.Version()+3)
	}
	if err := ten.AppendDiff(s3, xmlschema.DiffSnapshots(snap, s3)); err != nil {
		t.Fatal(err)
	}
	ts, err := ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != s3.Version() {
		t.Fatalf("replayed version %d, want %d", ts.Version(), s3.Version())
	}
	if !bytes.Equal(repoBytes(t, ts.Snapshot.Repository()), repoBytes(t, s3.Repository())) {
		t.Fatal("replayed repository differs")
	}
}
