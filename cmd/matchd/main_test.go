package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpserve"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// writeCorpus materializes a deterministic synthetic fleet as the XML
// corpus matchd loads, returning the tenants for driving requests.
func writeCorpus(t *testing.T, dir string, seed uint64, tenants, personals, schemas int) []*synth.Tenant {
	t.Helper()
	cfg := synth.DefaultConfig(0)
	cfg.NumSchemas = schemas
	fleet, err := synth.GenerateTenants(seed, tenants, personals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range fleet {
		f, err := os.Create(filepath.Join(dir, tn.Name+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		if err := xmlschema.WriteRepository(f, tn.Repo()); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fleet
}

// startDaemon runs the daemon body on a random port and returns the
// bound address, the signal channel, and the exit-error channel.
func startDaemon(t *testing.T, args []string, out *bytes.Buffer) (string, chan os.Signal, chan error) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, args...)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, out, stop) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return string(b), stop, done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address file\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdown sends SIGTERM and requires the daemon to exit after a clean
// drain.
func shutdown(t *testing.T, stop chan os.Signal, done chan error, out *bytes.Buffer) {
	t.Helper()
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("missing clean-drain report:\n%s", out.String())
	}
}

// TestDaemonServeAndDrain is the end-to-end lifecycle: load a corpus,
// warm every tenant with a wire batch, serve concurrent requests over
// every matcher family while each tenant is churned over the admin
// PUT, then SIGTERM and exit clean with every admitted request
// answered.
func TestDaemonServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	fleet := writeCorpus(t, dir, 41, 2, 2, 12)
	var out bytes.Buffer
	addr, stop, done := startDaemon(t,
		[]string{"-corpus", dir, "-workers", "4", "-queue", "64", "-admin-token", "admin-tok"}, &out)

	cl := httpserve.NewClient(addr, "")
	defer cl.Close()
	admin := httpserve.NewClient(addr, "admin-tok")
	defer admin.Close()
	ctx := context.Background()

	if ok, err := cl.Health(ctx); err != nil || !ok {
		t.Fatalf("health: %v %v", ok, err)
	}

	// One clustered batch per tenant makes every tenant resident over
	// the wire; no item of a batch may fail.
	for _, tn := range fleet {
		var items []httpserve.BatchItem
		for _, p := range tn.Personals() {
			items = append(items, httpserve.BatchItem{Tenant: tn.Name, MatchRequest: httpserve.MatchRequest{
				Personal: httpserve.WireSchema(p), Delta: 0.4, Matcher: "clustered",
			}})
		}
		resp, err := cl.MatchBatch(ctx, &httpserve.BatchRequest{Requests: items})
		if err != nil {
			t.Fatalf("batch %s: %v", tn.Name, err)
		}
		if len(resp.Results) != len(items) {
			t.Fatalf("batch %s: %d results for %d requests", tn.Name, len(resp.Results), len(items))
		}
		for i, r := range resp.Results {
			if r.Error != nil {
				t.Fatalf("batch %s/%d: %s: %s", tn.Name, i, r.Error.Code, r.Error.Message)
			}
		}
	}

	// Every tenant is churned over the admin PUT while the queries are
	// in flight; the repositories are derived up front because only the
	// test goroutine may fail the test.
	const churnRounds = 3
	var updates [][]*xmlschema.Repository
	for _, tn := range fleet {
		repo, seq := tn.Repo(), []*xmlschema.Repository(nil)
		for round := 1; round <= churnRounds; round++ {
			repo = churned(t, repo, round)
			seq = append(seq, repo)
		}
		updates = append(updates, seq)
	}
	churnErr := make(chan error, 1)
	go func() {
		for round := 0; round < churnRounds; round++ {
			for i, tn := range fleet {
				if err := admin.UpdateTenant(ctx, tn.Name, updates[i][round]); err != nil {
					churnErr <- fmt.Errorf("churn %s round %d: %w", tn.Name, round+1, err)
					return
				}
			}
		}
		churnErr <- nil
	}()

	// Concurrent traffic across the fleet and the matcher families.
	specs := []string{"exhaustive", "parallel", "beam:16", "topk:0.035", "clustered"}
	var wg sync.WaitGroup
	var served atomic.Int64
	for round := 0; round < len(specs); round++ {
		for _, tn := range fleet {
			for i, p := range tn.Personals() {
				wg.Add(1)
				go func(tenant string, req *httpserve.MatchRequest) {
					defer wg.Done()
					res, err := cl.Match(ctx, tenant, req)
					if err != nil {
						t.Errorf("%s %s: %v", tenant, req.Matcher, err)
						return
					}
					served.Add(1)
					if res.Stats.Matcher == "" {
						t.Errorf("%s: result without matcher name", tenant)
					}
				}(tn.Name, &httpserve.MatchRequest{
					Personal: httpserve.WireSchema(p), Delta: 0.4, Matcher: specs[(round+i)%len(specs)],
				})
			}
		}
	}
	wg.Wait()
	if err := <-churnErr; err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served")
	}
	for _, tn := range fleet {
		ts, err := cl.TenantStats(ctx, tn.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Version <= 1 {
			t.Fatalf("%s: %d churn PUTs landed but the served version is still %d", tn.Name, churnRounds, ts.Version)
		}
	}

	// Scrape metrics over the wire before shutdown.
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "matchd_match_requests_total") {
		t.Fatal("metrics exposition missing matchd_match_requests_total")
	}

	// Hang up first: net/http's Shutdown waits up to 5 s for a pooled
	// connection that never carried a request.
	cl.Close()
	admin.Close()
	shutdown(t, stop, done, &out)
}

// TestDaemonTracing boots with -trace-sample 1: every request is
// traced, a request that opts in gets a well-formed span tree inline
// whose wall fits inside the latency its client measured, and
// /debug/traces serves the captured trees.
func TestDaemonTracing(t *testing.T) {
	dir := t.TempDir()
	fleet := writeCorpus(t, dir, 44, 2, 2, 10)
	var out bytes.Buffer
	addr, stop, done := startDaemon(t,
		[]string{"-corpus", dir, "-queue", "64", "-trace-sample", "1", "-admin-token", "admin-tok"}, &out)

	cl := httpserve.NewClient(addr, "")
	defer cl.Close()
	ctx := context.Background()

	specs := []string{"exhaustive", "beam:16", "clustered"}
	var wg sync.WaitGroup
	sent := 0
	for round := 0; round < len(specs); round++ {
		for _, tn := range fleet {
			for i, p := range tn.Personals() {
				req := &httpserve.MatchRequest{
					Personal: httpserve.WireSchema(p), Delta: 0.4,
					Matcher: specs[round], Trace: (round+i)%2 == 0,
				}
				sent++
				wg.Add(1)
				go func(tenant string) {
					defer wg.Done()
					start := time.Now()
					res, err := cl.Match(ctx, tenant, req)
					latency := time.Since(start)
					if err != nil {
						t.Errorf("%s %s: %v", tenant, req.Matcher, err)
						return
					}
					switch {
					case !req.Trace:
						if res.Trace != nil {
							t.Errorf("%s: trace inlined without the opt-in", tenant)
						}
					case res.Trace == nil:
						t.Errorf("%s: traced request returned no inline trace", tenant)
					default:
						if err := res.Trace.Validate(); err != nil {
							t.Errorf("%s: malformed trace %s: %v", tenant, res.Trace.ID, err)
						}
						if wall := time.Duration(res.Trace.WallNs); wall > latency {
							t.Errorf("%s: trace %s wall %v exceeds the request latency %v",
								tenant, res.Trace.ID, wall, latency)
						}
					}
				}(tn.Name)
			}
		}
	}
	wg.Wait()

	admin := httpserve.NewClient(addr, "admin-tok")
	defer admin.Close()
	tr, err := admin.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling at 1 traces the requests that did not opt in as well.
	if tr.Sampled < int64(sent) {
		t.Fatalf("%d traces begun for %d requests at -trace-sample 1", tr.Sampled, sent)
	}
	captured := 0
	for _, ring := range [][]*obs.TraceData{tr.Recent, tr.Slow} {
		for _, td := range ring {
			if err := td.Validate(); err != nil {
				t.Fatalf("/debug/traces: malformed trace %s: %v", td.ID, err)
			}
			captured++
		}
	}
	if captured == 0 {
		t.Fatal("/debug/traces returned no captured traces")
	}

	cl.Close()
	admin.Close()
	shutdown(t, stop, done, &out)
}

// TestDaemonAuthAndAdmin: tokens passed as flags guard serving and
// admin; a tenant registered over the admin surface serves matches.
func TestDaemonAuthAndAdmin(t *testing.T) {
	dir := t.TempDir()
	fleet := writeCorpus(t, dir, 42, 2, 1, 10)
	var out bytes.Buffer
	addr, stop, done := startDaemon(t,
		[]string{"-corpus", dir, "-token", "serve-tok", "-admin-token", "admin-tok"}, &out)
	defer func() {
		stop <- syscall.SIGTERM
		<-done
	}()
	ctx := context.Background()

	// Corpus files become tenants named by basename; only the first is
	// in the corpus dir for this test's registration flow.
	anon := httpserve.NewClient(addr, "")
	defer anon.Close()
	if _, err := anon.Match(ctx, fleet[0].Name, &httpserve.MatchRequest{
		Personal: httpserve.WireSchema(fleet[0].Personals()[0]), Delta: 0.4,
	}); err == nil {
		t.Fatal("unauthenticated request served despite -token")
	}

	serve := httpserve.NewClient(addr, "serve-tok")
	defer serve.Close()
	if _, err := serve.Match(ctx, fleet[0].Name, &httpserve.MatchRequest{
		Personal: httpserve.WireSchema(fleet[0].Personals()[0]), Delta: 0.4,
	}); err != nil {
		t.Fatal(err)
	}

	admin := httpserve.NewClient(addr, "admin-tok")
	defer admin.Close()
	fresh := "late-tenant"
	if err := admin.RegisterTenant(ctx, fresh, fleet[1].Repo()); err != nil {
		t.Fatal(err)
	}
	res, err := serve.Match(ctx, fresh, &httpserve.MatchRequest{
		Personal: httpserve.WireSchema(fleet[1].Personals()[0]), Delta: 0.4, Matcher: "topk:0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Answers == 0 {
		t.Fatal("tenant registered over the wire returned no answers")
	}
}

// TestDaemonFlagErrors: a configuration matchd cannot serve is refused
// before it listens, with an error naming what is wrong.
func TestDaemonFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing-corpus", []string{}, "-corpus or -store-dir"},
		{"empty-corpus", []string{"-corpus", t.TempDir()}, "no *.xml repositories"},
		{"tls-cert-without-key", []string{"-corpus", "x", "-tls-cert", "c"}, "-tls-cert and -tls-key"},
		{"bad-log-format", []string{"-corpus", "x", "-log-format", "xml"}, "-log-format"},
		{"unknown-flag", []string{"-nosuchflag"}, "nosuchflag"},
		{"empty-store", []string{"-store-dir", t.TempDir()}, "no tenants"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out, nil)
			if err == nil {
				t.Fatalf("%q accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%q: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestLoadCorpusRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("not xml"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCorpus(dir); err == nil {
		t.Fatal("malformed repository XML accepted")
	}
}
