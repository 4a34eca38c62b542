package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/httpserve"
	"repro/internal/store"
	"repro/internal/xmlschema"
)

// churned derives the next repository from cur in one wire update:
// the first schema is dropped, one schema is replaced by a copy with a
// renamed element, the rest carry over, and one fresh clone is added —
// removals, replacements, carry-over, and additions at once.
func churned(t *testing.T, cur *xmlschema.Repository, round int) *xmlschema.Repository {
	t.Helper()
	next := xmlschema.NewRepository()
	schemas := cur.Schemas()
	for i, s := range schemas {
		if i == 0 {
			continue
		}
		if i == len(schemas)/2 {
			s = s.Clone()
			s.ByID(s.Len() - 1).Name += fmt.Sprintf("_r%d", round)
		}
		if err := next.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := schemas[len(schemas)-1].CloneAs(fmt.Sprintf("churn-%d", round))
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Add(clone); err != nil {
		t.Fatal(err)
	}
	return next
}

// storeState reopens the store in dir and loads every tenant's durable
// state: the content matcharchive dumps.
func storeState(t *testing.T, dir string) map[string]*store.TenantState {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*store.TenantState, len(names))
	for _, name := range names {
		ts, err := st.Tenant(name).Load()
		if err != nil {
			t.Fatalf("store tenant %s: %v", name, err)
		}
		out[name] = ts
	}
	return out
}

// requireSameState fails unless got holds exactly want's tenants, each
// at the same version with the same schemas, in order and element for
// element.
func requireSameState(t *testing.T, got, want map[string]*store.TenantState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("store holds %d tenants, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("store lost tenant %s", name)
		}
		if g.Version() != w.Version() {
			t.Fatalf("%s: store at version %d, want %d", name, g.Version(), w.Version())
		}
		gs, ws := g.Snapshot.Schemas(), w.Snapshot.Schemas()
		if len(gs) != len(ws) {
			t.Fatalf("%s: store holds %d schemas, want %d", name, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i].Name != ws[i].Name || !xmlschema.Equal(gs[i].Root(), ws[i].Root()) {
				t.Fatalf("%s: schema %d is %q, want %q with identical content", name, i, gs[i].Name, ws[i].Name)
			}
		}
	}
}

// metricValue extracts one per-tenant sample from a /metrics scrape.
func metricValue(t *testing.T, text, family, tenant string) float64 {
	t.Helper()
	prefix := fmt.Sprintf(`%s{tenant="%s"} `, family, tenant)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(prefix):]), 64)
			if err != nil {
				t.Fatalf("%s: bad sample %q: %v", family, line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics exposition has no %s sample for tenant %q:\n%s", family, tenant, text)
	return 0
}

// TestDaemonColdStartRecovery is the end-to-end durability cycle: boot
// with a corpus and a store, churn every tenant over the wire, build
// the cluster indexes, SIGTERM, then reboot from the store alone and
// require every tenant back at its exact pre-kill version with
// identical answers and no gap heals. The rebooted daemon's SIGTERM
// must leave the store exactly as the first shutdown left it, and a
// third boot's update chains onto the recovered log.
func TestDaemonColdStartRecovery(t *testing.T) {
	corpusDir := t.TempDir()
	fleet := writeCorpus(t, corpusDir, 43, 2, 2, 10)
	storeDir := t.TempDir()
	boot := []string{"-store-dir", storeDir, "-admin-token", "admin-tok", "-compact-interval", "0"}

	var out1 bytes.Buffer
	addr, stop, done := startDaemon(t, append([]string{"-corpus", corpusDir}, boot...), &out1)
	cl := httpserve.NewClient(addr, "admin-tok")
	defer cl.Close()
	ctx := context.Background()

	specs := []string{"", "beam:16", "clustered"}
	request := func(tn string, p *xmlschema.Schema, spec string) (*httpserve.MatchResponse, error) {
		return cl.Match(ctx, tn, &httpserve.MatchRequest{
			Personal: httpserve.WireSchema(p), Delta: 0.4, Matcher: spec,
		})
	}

	// Churn each tenant a few rounds, then serve one request per
	// matcher at the final version (the clustered one builds the index
	// the shutdown compaction will persist) and record the reference
	// answers and version.
	versions := map[string]uint64{}
	answers := map[string][]*httpserve.MatchResponse{}
	for _, tn := range fleet {
		repo := tn.Repo()
		for round := 1; round <= 3; round++ {
			repo = churned(t, repo, round)
			if err := cl.UpdateTenant(ctx, tn.Name, repo); err != nil {
				t.Fatalf("churn %s: %v", tn.Name, err)
			}
		}
		for _, spec := range specs {
			res, err := request(tn.Name, tn.Personals()[0], spec)
			if err != nil {
				t.Fatalf("%s %q: %v", tn.Name, spec, err)
			}
			answers[tn.Name] = append(answers[tn.Name], res)
		}
		ts, err := cl.TenantStats(ctx, tn.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Version <= 1 {
			t.Fatalf("%s: churn did not advance the version (still %d)", tn.Name, ts.Version)
		}
		versions[tn.Name] = ts.Version
	}

	shutdown(t, stop, done, &out1)
	first := storeState(t, storeDir)
	for _, tn := range fleet {
		if ts := first[tn.Name]; ts == nil || ts.Version() != versions[tn.Name] {
			t.Fatalf("%s: shutdown left no store state at version %d", tn.Name, versions[tn.Name])
		}
	}

	// Cold start: the store is the only source — no corpus flag at all.
	var out2 bytes.Buffer
	addr2, stop2, done2 := startDaemon(t, boot, &out2)
	cl2 := httpserve.NewClient(addr2, "admin-tok")
	defer cl2.Close()

	// Before any request: recovery gauges say every tenant came back at
	// its exact pre-kill version with no heals.
	text, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range fleet {
		if v := metricValue(t, text, "matchd_store_recovered_version", tn.Name); uint64(v) != versions[tn.Name] {
			t.Fatalf("%s: recovered to version %v, want %d\n%s", tn.Name, v, versions[tn.Name], out2.String())
		}
		if v := metricValue(t, text, "matchd_store_tail_version", tn.Name); uint64(v) != versions[tn.Name] {
			t.Fatalf("%s: durable tail at version %v, want %d", tn.Name, v, versions[tn.Name])
		}
		if v := metricValue(t, text, "matchd_store_gap_heals_total", tn.Name); v != 0 {
			t.Fatalf("%s: %v gap heals on a clean recovery", tn.Name, v)
		}
		// The shutdown compaction rewrote the log to a single base, so a
		// clean recovery replays zero diffs.
		if v := metricValue(t, text, "matchd_store_diff_records", tn.Name); v != 0 {
			t.Fatalf("%s: %v diff records after shutdown compaction", tn.Name, v)
		}
	}

	// Every tenant answers every matcher exactly as before the kill,
	// and its serving version matches.
	for _, tn := range fleet {
		for i, spec := range specs {
			res, err := cl2.Match(ctx, tn.Name, &httpserve.MatchRequest{
				Personal: httpserve.WireSchema(tn.Personals()[0]), Delta: 0.4, Matcher: spec,
			})
			if err != nil {
				t.Fatalf("recovered %s %q: %v", tn.Name, spec, err)
			}
			want := answers[tn.Name][i]
			if !reflect.DeepEqual(res.Answers, want.Answers) {
				t.Fatalf("recovered %s %q: answers diverge\n got %+v\nwant %+v", tn.Name, spec, res.Answers, want.Answers)
			}
		}
		ts, err := cl2.TenantStats(ctx, tn.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Version != versions[tn.Name] {
			t.Fatalf("recovered %s serves version %d, want %d", tn.Name, ts.Version, versions[tn.Name])
		}
	}

	// The power cycle: the rebooted daemon's shutdown, which compacts
	// every recovered tenant again, leaves the store bit for bit as the
	// first shutdown did.
	shutdown(t, stop2, done2, &out2)
	requireSameState(t, storeState(t, storeDir), first)

	// Life goes on: on a third boot, a wire update chains onto the
	// recovered log without healing.
	var out3 bytes.Buffer
	addr3, stop3, done3 := startDaemon(t, boot, &out3)
	defer shutdown(t, stop3, done3, &out3)
	cl3 := httpserve.NewClient(addr3, "admin-tok")
	defer cl3.Close()
	tn := fleet[0]
	repo := xmlschema.NewRepository()
	for _, s := range tn.Repo().Schemas() {
		if err := repo.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl3.UpdateTenant(ctx, tn.Name, repo); err != nil {
		t.Fatalf("post-recovery churn: %v", err)
	}
	ts, err := cl3.TenantStats(ctx, tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version <= versions[tn.Name] {
		t.Fatalf("post-recovery update did not advance the version (%d)", ts.Version)
	}
	text, err = cl3.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "matchd_store_tail_version", tn.Name); uint64(v) != ts.Version {
		t.Fatalf("post-recovery tail %v does not track serving version %d", v, ts.Version)
	}
	if v := metricValue(t, text, "matchd_store_gap_heals_total", tn.Name); v != 0 {
		t.Fatalf("post-recovery update needed %v gap heals; the diff should chain", v)
	}
}

// TestDaemonShards boots with -shards 3: a bare "sharded" request
// resolves to the daemon's shard count and, over the wire, returns the
// unsharded exhaustive answers — for tenants registered from the corpus
// and again for the same tenants recovered from the store on a second
// boot, which registers them through a separate path.
func TestDaemonShards(t *testing.T) {
	corpusDir := t.TempDir()
	fleet := writeCorpus(t, corpusDir, 45, 2, 2, 10)
	storeDir := t.TempDir()
	boot := []string{"-store-dir", storeDir, "-shards", "3", "-compact-interval", "0"}
	ctx := context.Background()

	serveSharded := func(addr string) {
		t.Helper()
		cl := httpserve.NewClient(addr, "")
		defer cl.Close()
		answers := 0
		for _, tn := range fleet {
			for _, p := range tn.Personals() {
				res := map[string]*httpserve.MatchResponse{}
				for _, spec := range []string{"exhaustive", "sharded"} {
					r, err := cl.Match(ctx, tn.Name, &httpserve.MatchRequest{
						Personal: httpserve.WireSchema(p), Delta: 0.4, Matcher: spec,
					})
					if err != nil {
						t.Fatalf("%s %s: %v", tn.Name, spec, err)
					}
					res[spec] = r
				}
				got, want := res["sharded"], res["exhaustive"]
				if got.Stats.Matcher != "sharded:3" {
					t.Fatalf("%s: bare sharded resolved to %q, want sharded:3", tn.Name, got.Stats.Matcher)
				}
				if got.Stats.Sharded == nil || got.Stats.Sharded.Shards != 3 {
					t.Fatalf("%s: shard stats missing or wrong: %+v", tn.Name, got.Stats.Sharded)
				}
				if !reflect.DeepEqual(got.Answers, want.Answers) {
					t.Fatalf("%s/%s: sharded answers differ from exhaustive:\n got %+v\nwant %+v",
						tn.Name, p.Name, got.Answers, want.Answers)
				}
				answers += len(got.Answers)
			}
		}
		if answers == 0 {
			t.Fatal("no request returned an answer; the comparison shows nothing")
		}
	}

	var out1 bytes.Buffer
	addr, stop, done := startDaemon(t, append([]string{"-corpus", corpusDir}, boot...), &out1)
	serveSharded(addr)
	shutdown(t, stop, done, &out1)

	var out2 bytes.Buffer
	addr2, stop2, done2 := startDaemon(t, boot, &out2)
	serveSharded(addr2)
	shutdown(t, stop2, done2, &out2)
	if !strings.Contains(out2.String(), fmt.Sprintf("recovered %d tenants", len(fleet))) {
		t.Fatalf("second boot did not recover the fleet from the store:\n%s", out2.String())
	}
}
