package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/synth"
	"repro/internal/xmlschema"
	"repro/match"
)

// testFleet generates a small deterministic tenant fleet.
func testFleet(t *testing.T, seed uint64, tenants, personals, schemas int) []*synth.Tenant {
	t.Helper()
	cfg := synth.DefaultConfig(0)
	cfg.NumSchemas = schemas
	out, err := synth.GenerateTenants(seed, tenants, personals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// newTestServer stands up a match.Server with the fleet registered and
// an httptest server around its handler.
func newTestServer(t *testing.T, fleet []*synth.Tenant, cfg Config, opts ...match.ServerOption) (*match.Server, *httptest.Server) {
	t.Helper()
	srv := match.NewServer(opts...)
	t.Cleanup(srv.Close)
	for _, tn := range fleet {
		if err := srv.AddTenant(tn.Name, tn.Repo()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(srv, cfg))
	t.Cleanup(ts.Close)
	return srv, ts
}

func wireRequest(p *xmlschema.Schema, delta float64, matcher string) *MatchRequest {
	return &MatchRequest{Personal: WireSchema(p), Delta: delta, Matcher: matcher}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitInflight polls until the server reports exactly n admitted
// in-flight groups.
func waitInflight(t *testing.T, srv *match.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight groups stuck at %d, want %d", srv.Stats().InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMatchWireParity proves the wire path returns exactly what the
// in-process call returns: same answers, same scores, same stats
// totals — serialization must not change semantics.
func TestMatchWireParity(t *testing.T) {
	fleet := testFleet(t, 11, 2, 2, 16)
	srv, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()

	ctx := context.Background()
	for _, tn := range fleet {
		for _, p := range tn.Personals() {
			for _, spec := range []string{"exhaustive", "beam:8", "topk:0.05"} {
				want, err := srv.Match(ctx, tn.Name, match.Request{Personal: p, Delta: 0.4, Matcher: spec})
				if err != nil {
					t.Fatal(err)
				}
				got, err := cl.Match(ctx, tn.Name, wireRequest(p, 0.4, spec))
				if err != nil {
					t.Fatalf("%s/%s %s: %v", tn.Name, p.Name, spec, err)
				}
				if len(got.Answers) != len(want.Answers) {
					t.Fatalf("%s %s: %d answers over the wire, %d in process", tn.Name, spec, len(got.Answers), len(want.Answers))
				}
				for i, a := range got.Answers {
					w := want.Answers[i]
					if a.Schema != w.Mapping.Schema || a.Score != w.Score {
						t.Fatalf("answer %d: got (%s, %g), want (%s, %g)", i, a.Schema, a.Score, w.Mapping.Schema, w.Score)
					}
					if len(a.Targets) != len(w.Mapping.Targets) {
						t.Fatalf("answer %d: %d targets, want %d", i, len(a.Targets), len(w.Mapping.Targets))
					}
				}
				if got.Stats.Answers != want.Stats.Answers || got.Stats.Matcher != want.Stats.Matcher {
					t.Fatalf("stats diverge: got (%d, %s), want (%d, %s)",
						got.Stats.Answers, got.Stats.Matcher, want.Stats.Answers, want.Stats.Matcher)
				}
				if len(got.Bounds) != len(want.Bounds) {
					t.Fatalf("bounds: %d points over the wire, %d in process", len(got.Bounds), len(want.Bounds))
				}
			}
		}
	}
}

// TestBatchWire exercises POST /v1/batch: results in order, runtime
// failures per item, wire-invalid batches rejected whole.
func TestBatchWire(t *testing.T) {
	fleet := testFleet(t, 12, 2, 1, 12)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()

	p := fleet[0].Personals()[0]
	req := &BatchRequest{Requests: []BatchItem{
		{Tenant: fleet[0].Name, MatchRequest: *wireRequest(p, 0.4, "beam:8")},
		{Tenant: "no-such-tenant", MatchRequest: *wireRequest(p, 0.4, "")},
		{Tenant: fleet[1].Name, MatchRequest: *wireRequest(p, 0.4, "topk:0.05")},
	}}
	ctx := context.Background()
	resp, err := cl.MatchBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Response == nil || resp.Results[0].Error != nil {
		t.Fatalf("item 0 should succeed: %+v", resp.Results[0].Error)
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownTenant {
		t.Fatalf("item 1 should fail with %s: %+v", CodeUnknownTenant, resp.Results[1])
	}
	if resp.Results[2].Response == nil {
		t.Fatalf("item 2 should succeed: %+v", resp.Results[2].Error)
	}

	// A wire-invalid item rejects the whole batch with 400.
	bad := &BatchRequest{Requests: []BatchItem{
		{Tenant: fleet[0].Name, MatchRequest: *wireRequest(p, 0.4, "")},
		{Tenant: fleet[0].Name, MatchRequest: MatchRequest{Personal: WireSchema(p), Delta: -1}},
	}}
	if _, err := cl.MatchBatch(ctx, bad); err == nil {
		t.Fatal("negative delta in a batch item should reject the batch")
	} else if ae := new(APIError); !asAPIErr(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %v", err)
	}
}

// TestBatchWireParity: every item of a POST /v1/batch answers exactly
// as the same request sent alone over POST /v1/match — answers, bounds
// and the resolved matcher — across tenants and matcher families.
func TestBatchWireParity(t *testing.T) {
	fleet := testFleet(t, 13, 2, 2, 14)
	_, ts := newTestServer(t, fleet, Config{}, match.WithWorkers(4))
	cl := NewClient(ts.URL, "")
	defer cl.Close()

	var items []BatchItem
	for _, tn := range fleet {
		for _, p := range tn.Personals() {
			for _, spec := range []string{"exhaustive", "beam:8", "topk:0.05", "clustered:2"} {
				items = append(items, BatchItem{Tenant: tn.Name, MatchRequest: *wireRequest(p, 0.4, spec)})
			}
		}
	}
	ctx := context.Background()
	resp, err := cl.MatchBatch(ctx, &BatchRequest{Requests: items})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(items) {
		t.Fatalf("got %d results for %d requests", len(resp.Results), len(items))
	}
	answers := 0
	for i, it := range items {
		r := resp.Results[i]
		if r.Error != nil {
			t.Fatalf("item %d (%s %s): %s: %s", i, it.Tenant, it.Matcher, r.Error.Code, r.Error.Message)
		}
		want, err := cl.Match(ctx, it.Tenant, &it.MatchRequest)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		got := r.Response
		if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Bounds, want.Bounds) {
			t.Fatalf("item %d (%s %s): batch and sequential answers differ", i, it.Tenant, it.Matcher)
		}
		if got.Stats.Matcher != want.Stats.Matcher {
			t.Fatalf("item %d: batch resolved %q, sequential %q", i, got.Stats.Matcher, want.Stats.Matcher)
		}
		answers += len(got.Answers)
	}
	if answers == 0 {
		t.Fatal("no item returned an answer; the comparison shows nothing")
	}
}

func asAPIErr(err error, target **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*target = ae
	}
	return ok
}

// TestAuth covers the token matrix: open serving without tokens,
// 401/403 on missing and wrong tokens, tenant-scoped versus global
// tokens, the batch check covering every named tenant, and the admin
// surface staying shut without admin tokens.
func TestAuth(t *testing.T) {
	fleet := testFleet(t, 13, 2, 1, 10)
	auth := &AuthConfig{
		TenantTokens: map[string][]string{fleet[0].Name: {"t0-token"}},
		GlobalTokens: []string{"global-token"},
		AdminTokens:  []string{"admin-token"},
	}
	_, ts := newTestServer(t, fleet, Config{Auth: auth})
	p := fleet[0].Personals()[0]
	ctx := context.Background()

	check := func(t *testing.T, cl *Client, tenant string, wantStatus int) {
		t.Helper()
		_, err := cl.Match(ctx, tenant, wireRequest(p, 0.4, ""))
		if wantStatus == 0 {
			if err != nil {
				t.Fatalf("want success, got %v", err)
			}
			return
		}
		var ae *APIError
		if !asAPIErr(err, &ae) || ae.StatusCode != wantStatus {
			t.Fatalf("want status %d, got %v", wantStatus, err)
		}
	}

	noTok := NewClient(ts.URL, "")
	defer noTok.Close()
	t0 := NewClient(ts.URL, "t0-token")
	defer t0.Close()
	global := NewClient(ts.URL, "global-token")
	defer global.Close()
	admin := NewClient(ts.URL, "admin-token")
	defer admin.Close()

	check(t, noTok, fleet[0].Name, http.StatusUnauthorized)
	check(t, t0, fleet[0].Name, 0)
	check(t, t0, fleet[1].Name, http.StatusForbidden)
	check(t, global, fleet[0].Name, 0)
	check(t, global, fleet[1].Name, 0)
	// The admin token is not a serving token.
	check(t, admin, fleet[0].Name, http.StatusForbidden)

	// A batch must be authorized for every tenant it names.
	batch := &BatchRequest{Requests: []BatchItem{
		{Tenant: fleet[0].Name, MatchRequest: *wireRequest(p, 0.4, "")},
		{Tenant: fleet[1].Name, MatchRequest: *wireRequest(p, 0.4, "")},
	}}
	if _, err := t0.MatchBatch(ctx, batch); err == nil {
		t.Fatal("tenant-scoped token should not cover a foreign tenant in a batch")
	}
	if _, err := global.MatchBatch(ctx, batch); err != nil {
		t.Fatalf("global token should cover the batch: %v", err)
	}

	// Tenant listing is admin-only.
	if _, err := t0.Tenants(ctx); err == nil {
		t.Fatal("tenant listing should require the admin token")
	}
	names, err := admin.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(fleet) {
		t.Fatalf("got %d tenants, want %d", len(names), len(fleet))
	}

	// /metrics and /healthz stay open.
	if _, err := noTok.Metrics(ctx); err != nil {
		t.Fatalf("metrics should be open: %v", err)
	}
	if ok, err := noTok.Health(ctx); err != nil || !ok {
		t.Fatalf("healthz should be open and healthy: %v %v", ok, err)
	}
}

// TestAdminDisabledWithoutTokens: with no admin tokens configured the
// admin surface refuses everything, even on an otherwise open server.
func TestAdminDisabledWithoutTokens(t *testing.T) {
	fleet := testFleet(t, 14, 1, 1, 8)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "whatever")
	defer cl.Close()
	err := cl.RegisterTenant(context.Background(), "new", fleet[0].Repo())
	var ae *APIError
	if !asAPIErr(err, &ae) || ae.StatusCode != http.StatusForbidden {
		t.Fatalf("want 403 on the disabled admin surface, got %v", err)
	}
}

// TestAdminRegisterUpdate drives the tenant lifecycle over the wire:
// register from XML, match against it, conflict on re-register,
// atomic repository replacement bumping the snapshot version.
func TestAdminRegisterUpdate(t *testing.T) {
	fleet := testFleet(t, 15, 2, 1, 10)
	auth := &AuthConfig{GlobalTokens: []string{"g"}, AdminTokens: []string{"a"}}
	_, ts := newTestServer(t, fleet[:1], Config{Auth: auth})
	admin := NewClient(ts.URL, "a")
	defer admin.Close()
	serve := NewClient(ts.URL, "g")
	defer serve.Close()
	ctx := context.Background()

	newcomer := fleet[1]
	if err := admin.RegisterTenant(ctx, newcomer.Name, newcomer.Repo()); err != nil {
		t.Fatal(err)
	}
	res, err := serve.Match(ctx, newcomer.Name, wireRequest(newcomer.Personals()[0], 0.4, "beam:8"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Answers == 0 {
		t.Fatal("freshly registered tenant returned no answers at delta 0.4")
	}

	err = admin.RegisterTenant(ctx, newcomer.Name, newcomer.Repo())
	var ae *APIError
	if !asAPIErr(err, &ae) || ae.StatusCode != http.StatusConflict || ae.Code != CodeTenantExists {
		t.Fatalf("want 409 %s on duplicate register, got %v", CodeTenantExists, err)
	}

	before, err := serve.TenantStats(ctx, newcomer.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the repository with a shrunken copy: every schema but the
	// first survives.
	shrunk := xmlschema.NewRepository()
	for _, s := range newcomer.Repo().Schemas()[1:] {
		if err := shrunk.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.UpdateTenant(ctx, newcomer.Name, shrunk); err != nil {
		t.Fatal(err)
	}
	after, err := serve.TenantStats(ctx, newcomer.Name)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version <= before.Version {
		t.Fatalf("snapshot version did not advance: %d -> %d", before.Version, after.Version)
	}

	// Updating an unknown tenant is 404.
	err = admin.UpdateTenant(ctx, "ghost", shrunk)
	if !asAPIErr(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404 updating unknown tenant, got %v", err)
	}
}

// TestUnknownTenant maps match.ErrUnknownTenant to 404 with the typed
// code.
func TestUnknownTenant(t *testing.T) {
	fleet := testFleet(t, 16, 1, 1, 8)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	_, err := cl.Match(context.Background(), "ghost", wireRequest(fleet[0].Personals()[0], 0.4, ""))
	var ae *APIError
	if !asAPIErr(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != CodeUnknownTenant {
		t.Fatalf("want 404 %s, got %v", CodeUnknownTenant, err)
	}
}

// TestOverloaded fills a one-slot queue behind a blocked worker and
// asserts the next request is rejected with 429 and a Retry-After
// hint.
func TestOverloaded(t *testing.T) {
	fleet := testFleet(t, 17, 1, 1, 8)
	srv := match.NewServer(match.WithWorkers(1), match.WithQueueDepth(1))
	defer srv.Close()
	gate := make(chan struct{})
	var once sync.Once
	tn := fleet[0]
	if err := srv.Register(tn.Name, func() (*match.Service, error) {
		once.Do(func() { <-gate })
		return match.NewService(tn.Repo())
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv, Config{}))
	defer ts.Close()
	cl := NewClient(ts.URL, "")
	defer cl.Close()

	before := runtime.NumGoroutine()
	ctx := context.Background()
	p := tn.Personals()[0]
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Match(ctx, tn.Name, wireRequest(p, 0.4, ""))
		}(i)
		waitInflight(t, srv, int64(i+1))
	}
	// Worker blocked, queue full: the next request must bounce.
	_, err := cl.Match(ctx, tn.Name, wireRequest(p, 0.4, ""))
	if !IsOverloaded(err) {
		t.Fatalf("want a 429 admission rejection, got %v", err)
	}
	var ae *APIError
	asAPIErr(err, &ae)
	if ae.Code != CodeOverloaded {
		t.Fatalf("want code %s, got %s", CodeOverloaded, ae.Code)
	}
	// Retry-After travels on the raw response; check it directly.
	resp, rerr := http.Post(ts.URL+"/v1/match/"+tn.Name, "application/json",
		strings.NewReader(mustBody(t, wireRequest(p, 0.4, ""))))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	resp.Body.Close()

	close(gate)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("admitted request %d failed: %v", i, e)
		}
	}
	// Idle pooled connections carry goroutines; drop them before the
	// leak check so it sees only what the server side holds.
	cl.Close()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before+4)
}

// TestDeadline: a blocked tenant and a short wire deadline produce 504
// without leaking the admitted work.
func TestDeadline(t *testing.T) {
	fleet := testFleet(t, 18, 1, 1, 8)
	srv := match.NewServer(match.WithWorkers(1))
	defer srv.Close()
	gate := make(chan struct{})
	var once sync.Once
	tn := fleet[0]
	if err := srv.Register(tn.Name, func() (*match.Service, error) {
		once.Do(func() { <-gate })
		return match.NewService(tn.Repo())
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv, Config{}))
	defer ts.Close()
	cl := NewClient(ts.URL, "")
	defer cl.Close()

	before := runtime.NumGoroutine()
	// Without a client-side deadline, the wire deadline alone must end
	// the request that starts the tenant's build with a 504 while the
	// build is still blocked.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match/"+tn.Name,
		strings.NewReader(mustBody(t, wireRequest(tn.Personals()[0], 0.4, ""))))
	req.Header.Set(DeadlineHeader, "50")
	req.Close = true // keep no idle connection for the leak check below
	start := time.Now()
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || decErr != nil || eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("wire deadline on a blocked tenant: status %d, code %q (%v); want 504 %s",
			resp.StatusCode, eb.Error.Code, decErr, CodeDeadlineExceeded)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("50ms wire deadline answered after %v", took)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = cl.Match(ctx, tn.Name, wireRequest(tn.Personals()[0], 0.4, ""))
	var ae *APIError
	if asAPIErr(err, &ae) {
		if ae.StatusCode != http.StatusGatewayTimeout || ae.Code != CodeDeadlineExceeded {
			t.Fatalf("want 504 %s, got %v", CodeDeadlineExceeded, err)
		}
	} else if err == nil {
		t.Fatal("blocked tenant served within a 100ms deadline")
	}
	// The client may also observe its own context expiry as a transport
	// error; either way the server must unwind cleanly.
	close(gate)
	cl.Close()
	waitGoroutines(t, before+4)

	// With the gate open the same request now succeeds.
	res, err := cl.Match(context.Background(), tn.Name, wireRequest(tn.Personals()[0], 0.4, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Answers == 0 {
		t.Fatal("unblocked request returned no answers")
	}

	// A malformed deadline header is 400, not a hang.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/match/"+tn.Name,
		strings.NewReader(mustBody(t, wireRequest(tn.Personals()[0], 0.4, ""))))
	req.Header.Set(DeadlineHeader, "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline header: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestDrainServing: after Drain the serving surface answers 503 with
// the typed server_closed code and /healthz flips to draining.
func TestDrainServing(t *testing.T) {
	fleet := testFleet(t, 19, 1, 1, 8)
	srv, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	ctx := context.Background()

	if ok, _ := cl.Health(ctx); !ok {
		t.Fatal("server should report healthy before drain")
	}
	if _, err := cl.Match(ctx, fleet[0].Name, wireRequest(fleet[0].Personals()[0], 0.4, "")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ok, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("healthz should report draining after Drain")
	}
	_, err = cl.Match(ctx, fleet[0].Name, wireRequest(fleet[0].Personals()[0], 0.4, ""))
	var ae *APIError
	if !asAPIErr(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || ae.Code != CodeServerClosed {
		t.Fatalf("want 503 %s after drain, got %v", CodeServerClosed, err)
	}
}

// TestBadRequests walks the 4xx decode surface.
func TestBadRequests(t *testing.T) {
	fleet := testFleet(t, 20, 1, 1, 8)
	_, ts := newTestServer(t, fleet, Config{MaxBodyBytes: 4096, MaxPersonalElements: 4})
	tn := fleet[0].Name
	post := func(t *testing.T, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/match/"+tn, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		code := ""
		if decErr := decodeStrict(resp.Body, &eb); decErr == nil {
			code = eb.Error.Code
		}
		return resp.StatusCode, code
	}

	small := `{"personal":{"name":"p","root":{"name":"r"}},"delta":0.4}`
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"personal":`, http.StatusBadRequest},
		{"unknown field", `{"personal":{"name":"p","root":{"name":"r"}},"delta":0.4,"zeta":1}`, http.StatusBadRequest},
		{"trailing data", small + ` {"again":true}`, http.StatusBadRequest},
		{"missing personal", `{"delta":0.4}`, http.StatusBadRequest},
		{"unnamed personal", `{"personal":{"name":"","root":{"name":"r"}},"delta":0.4}`, http.StatusBadRequest},
		{"negative delta", `{"personal":{"name":"p","root":{"name":"r"}},"delta":-0.1}`, http.StatusBadRequest},
		{"overflowing delta", `{"personal":{"name":"p","root":{"name":"r"}},"delta":1e999}`, http.StatusBadRequest},
		{"negative limit", `{"personal":{"name":"p","root":{"name":"r"}},"delta":0.4,"limit":-1}`, http.StatusBadRequest},
		{"bad matcher", `{"personal":{"name":"p","root":{"name":"r"}},"delta":0.4,"matcher":"quantum"}`, http.StatusBadRequest},
		{"oversized personal", `{"personal":{"name":"p","root":{"name":"r","children":[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d"}]}},"delta":0.4}`, http.StatusBadRequest},
		{"oversized body", fmt.Sprintf(`{"personal":{"name":"p","root":{"name":"r","type":%q}},"delta":0.4}`, strings.Repeat("x", 8192)), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := post(t, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (code %q)", status, tc.status, code)
			}
			if code == "" {
				t.Fatal("error body missing the typed code")
			}
		})
	}

	// The well-formed control case still succeeds under the tight
	// limits.
	resp, err := http.Post(ts.URL+"/v1/match/"+tn, "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control request failed with %d", resp.StatusCode)
	}
}

// TestSessionInterning: repeated wire requests with the same personal
// schema must share one schema instance so the tenant's session caches
// hit, exactly as repeated in-process calls do.
func TestSessionInterning(t *testing.T) {
	fleet := testFleet(t, 21, 1, 2, 10)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	ctx := context.Background()
	tn := fleet[0]
	p := tn.Personals()[0]

	if _, err := cl.Match(ctx, tn.Name, wireRequest(p, 0.4, "beam:8")); err != nil {
		t.Fatal(err)
	}
	first, err := cl.TenantStats(ctx, tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.Hits+first.Cache.Misses == 0 {
		t.Fatal("first request should have generated scoring-engine traffic")
	}
	if _, err := cl.Match(ctx, tn.Name, wireRequest(p, 0.4, "beam:8")); err != nil {
		t.Fatal(err)
	}
	second, err := cl.TenantStats(ctx, tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The second request decodes into the same interned schema
	// instance, hits the tenant's session cache, and does no scoring
	// work at all. A broken interner would rebuild the session and move
	// these counters.
	if second.Cache.Hits != first.Cache.Hits || second.Cache.Misses != first.Cache.Misses {
		t.Fatalf("second identical wire request caused scoring traffic: (%d,%d) -> (%d,%d)",
			first.Cache.Hits, first.Cache.Misses, second.Cache.Hits, second.Cache.Misses)
	}
}

func mustBody(t *testing.T, req *MatchRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPprofGated: the pprof surface is absent by default, and when
// enabled it sits behind the admin bearer-token check — fail-closed
// without admin tokens.
func TestPprofGated(t *testing.T) {
	fleet := testFleet(t, 15, 1, 1, 8)
	get := func(ts *httptest.Server, token string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	_, off := newTestServer(t, fleet, Config{})
	if got := get(off, ""); got != http.StatusNotFound {
		t.Fatalf("pprof disabled: want 404, got %d", got)
	}

	auth := &AuthConfig{AdminTokens: []string{"admin-token"}}
	_, on := newTestServer(t, fleet, Config{Auth: auth, EnablePprof: true})
	if got := get(on, ""); got != http.StatusUnauthorized {
		t.Fatalf("pprof without token: want 401, got %d", got)
	}
	if got := get(on, "wrong"); got != http.StatusForbidden {
		t.Fatalf("pprof with wrong token: want 403, got %d", got)
	}
	if got := get(on, "admin-token"); got != http.StatusOK {
		t.Fatalf("pprof with admin token: want 200, got %d", got)
	}

	_, noTokens := newTestServer(t, fleet, Config{EnablePprof: true})
	if got := get(noTokens, "anything"); got != http.StatusForbidden {
		t.Fatalf("pprof with no admin tokens configured: want 403, got %d", got)
	}
}
