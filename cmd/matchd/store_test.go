package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpserve"
	"repro/internal/xmlschema"
)

// churned derives the next repository from cur in one wire update:
// the first schema is dropped, the rest carry over, and one fresh
// clone is added — removals, carry-over, and additions at once.
func churned(t *testing.T, cur *xmlschema.Repository, round int) *xmlschema.Repository {
	t.Helper()
	next := xmlschema.NewRepository()
	schemas := cur.Schemas()
	for i, s := range schemas {
		if i == 0 {
			continue
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
// identical answers and no gap heals.
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

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v\n%s", err, out1.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\n%s", out1.String())
	}

	// Cold start: the store is the only source — no corpus flag at all.
	var out2 bytes.Buffer
	addr2, stop2, done2 := startDaemon(t, boot, &out2)
	defer func() {
		stop2 <- syscall.SIGTERM
		<-done2
	}()
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

	// Life goes on: a post-recovery wire update chains onto the
	// recovered log without healing.
	tn := fleet[0]
	repo := xmlschema.NewRepository()
	for _, s := range tn.Repo().Schemas() {
		if err := repo.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl2.UpdateTenant(ctx, tn.Name, repo); err != nil {
		t.Fatalf("post-recovery churn: %v", err)
	}
	ts, err := cl2.TenantStats(ctx, tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version <= versions[tn.Name] {
		t.Fatalf("post-recovery update did not advance the version (%d)", ts.Version)
	}
	text, err = cl2.Metrics(ctx)
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
