package store

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmlschema"
	"repro/match"
)

// The golden tenant log was compacted by a version that persisted
// cluster-index and scoring-memo hints: a base at version 2, an index
// record, a memo record, then three diffs up to version 5. The answers
// file holds what that version served from the recovered tenant for
// each personal schema of the personals file and each spec below, at
// δ = legacyDelta, one "personal spec mapping-key score-bits" line per
// answer after a "# version N" header.
const (
	legacyLog       = "testdata/legacy-hints.mstore"
	legacyPersonals = "testdata/legacy-hints.personals.xml"
	legacyAnswers   = "testdata/legacy-hints.answers"
	legacyDelta     = 0.4
)

var legacySpecs = []string{"exhaustive", "beam:16", "topk:0.05", "clustered"}

// TestLegacyHintLog recovers the golden log: the index and memo
// records are CRC-checked and skipped, every later diff replays, the
// tenant lands on its exact committed version and serves the answers
// recorded when the log was written, bit for bit, and a new diff
// chains after the old records without a gap heal.
func TestLegacyHintLog(t *testing.T) {
	data, err := os.ReadFile(legacyLog)
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	if _, err := decodeTail(data, func(typ byte, _ []byte) error {
		types = append(types, typ)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(types) != "BIMDDD" {
		t.Fatalf("golden log records %q, want BIMDDD", types)
	}

	st := openTestStore(t)
	ten := st.Tenant("legacy")
	if err := os.WriteFile(ten.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := ten.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := readLegacyAnswers(t)
	if got := fmt.Sprintf("# version %d", ts.Version()); got != want[0] {
		t.Fatalf("recovered %q, golden %q", got, want[0])
	}
	if ts.Report.TailError != nil || ts.Report.Records != 6 || ts.Report.DiffsReplayed != 3 {
		t.Fatalf("load report %+v, want 6 clean records and 3 diffs", ts.Report)
	}

	svc, err := match.NewServiceFromSnapshot(ts.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	personals, err := xmlschema.ReadRepository(mustOpen(t, legacyPersonals))
	if err != nil {
		t.Fatal(err)
	}
	got := want[:1]
	for pi, p := range personals.Schemas() {
		for _, spec := range legacySpecs {
			res, err := svc.Match(context.Background(), match.Request{Personal: p, Delta: legacyDelta, Matcher: spec})
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			for _, a := range res.Answers {
				got = append(got, fmt.Sprintf("%d %s %s %016x", pi, spec, a.Mapping.Key(), math.Float64bits(a.Score)))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d answer lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer line %d: %q, golden %q", i, got[i], want[i])
		}
	}

	// A new diff chains onto the skipped records' tail.
	next, err := ts.Snapshot.Add(mustSchema(t, "appended", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AppendDiff(next, xmlschema.DiffSnapshots(ts.Snapshot, next)); err != nil {
		t.Fatal(err)
	}
	stats, err := ten.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GapHeals != 0 || stats.Records != 7 || stats.DiffRecords != 4 || stats.TailVersion != next.Version() {
		t.Fatalf("after append: %+v", stats)
	}
	grown, err := os.ReadFile(ten.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(grown, data) {
		t.Fatal("append rewrote the legacy log instead of extending it")
	}
	again, err := st.Tenant("legacy").Load()
	if err != nil {
		t.Fatal(err)
	}
	if again.Version() != next.Version() || !bytes.Equal(repoBytes(t, again.Snapshot.Repository()), repoBytes(t, next.Repository())) {
		t.Fatalf("reloaded version %d, want %d with the appended schema", again.Version(), next.Version())
	}
}

func readLegacyAnswers(t *testing.T) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(mustOpen(t, legacyAnswers))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "# version ") {
		t.Fatalf("%s: missing version header", legacyAnswers)
	}
	return lines
}

func mustOpen(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
