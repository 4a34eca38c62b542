package match

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/matching"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// testTenants generates a small deterministic tenant fleet.
func testTenants(t *testing.T, seed uint64, tenants, personals, schemas int) []*synth.Tenant {
	t.Helper()
	cfg := synth.DefaultConfig(0)
	cfg.NumSchemas = schemas
	out, err := synth.GenerateTenants(seed, tenants, personals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// addAll registers every tenant on the server.
func addAll(t *testing.T, srv *Server, tenants []*synth.Tenant, opts ...Option) {
	t.Helper()
	for _, tn := range tenants {
		if err := srv.AddTenant(tn.Name, tn.Repo(), opts...); err != nil {
			t.Fatal(err)
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing after a generous deadline — the leak check behind the
// overload and close tests.
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

// TestServerBatchParityWithSequential is the serving-layer analogue of
// the façade parity test: a MatchBatch across tenants, personals, and
// specs returns exactly the answer sets of N sequential Service.Match
// calls.
func TestServerBatchParityWithSequential(t *testing.T) {
	tenants := testTenants(t, 3, 2, 2, 20)
	srv := NewServer(WithWorkers(4))
	defer srv.Close()
	addAll(t, srv, tenants)

	specs := []string{"exhaustive", "beam:8", "topk:0.05", "clustered:2"}
	var batch []BatchRequest
	for _, tn := range tenants {
		for _, p := range tn.Personals() {
			for _, sp := range specs {
				batch = append(batch, BatchRequest{
					Tenant:  tn.Name,
					Request: Request{Personal: p, Delta: 0.4, Matcher: sp},
				})
			}
		}
	}
	ctx := context.Background()
	got := srv.MatchBatch(ctx, batch)
	if len(got) != len(batch) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(batch))
	}
	for i, br := range batch {
		if got[i].Err != nil {
			t.Fatalf("request %d (%s %s): %v", i, br.Tenant, br.Matcher, got[i].Err)
		}
		svc, err := srv.Service(br.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc.Match(ctx, br.Request)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		sameSets(t, fmt.Sprintf("%s/%s/%s", br.Tenant, br.Personal.Name, br.Matcher),
			got[i].Result.Set, want.Set)
	}
	st := srv.Stats()
	if st.Overloaded != 0 {
		t.Errorf("unexpected overloads: %d", st.Overloaded)
	}
	// Grouping: requests sharing (tenant, personal) fold into one
	// admitted group, so far fewer groups than requests were accepted
	// by the batch (the sequential reruns above each add one more).
	batchGroups := int64(len(tenants) * 2) // tenants × personals
	if st.Accepted < batchGroups {
		t.Errorf("accepted %d groups, want at least %d", st.Accepted, batchGroups)
	}
}

// TestServerMatchSingle pins the single-request path and its error
// surface.
func TestServerMatchSingle(t *testing.T) {
	tenants := testTenants(t, 5, 1, 1, 15)
	srv := NewServer(WithWorkers(2))
	addAll(t, srv, tenants)
	ctx := context.Background()
	p := tenants[0].Personals()[0]

	res, err := srv.Match(ctx, tenants[0].Name, Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Set == nil || res.Stats.Matcher != "exhaustive" {
		t.Fatalf("bad result: %+v", res.Stats)
	}

	if _, err := srv.Match(ctx, "nobody", Request{Personal: p, Delta: 0.4}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant err = %v, want ErrUnknownTenant", err)
	}

	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Match(ctx, tenants[0].Name, Request{Personal: p, Delta: 0.4}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close err = %v, want ErrServerClosed", err)
	}
	if err := srv.AddTenant("late", tenants[0].Repo()); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close register err = %v, want ErrServerClosed", err)
	}
}

// TestServerRegisterValidation pins the registration error surface.
func TestServerRegisterValidation(t *testing.T) {
	tenants := testTenants(t, 5, 1, 1, 10)
	srv := NewServer(WithWorkers(1))
	defer srv.Close()
	if err := srv.AddTenant("", tenants[0].Repo()); err == nil {
		t.Error("empty tenant name should error")
	}
	if err := srv.AddTenant("a", nil); err == nil {
		t.Error("nil repository should error")
	}
	if err := srv.Register("a", nil); err == nil {
		t.Error("nil factory should error")
	}
	if err := srv.AddTenant("a", tenants[0].Repo()); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant("a", tenants[0].Repo()); err == nil {
		t.Error("duplicate tenant should error")
	}
	if got := srv.Tenants(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Tenants() = %v", got)
	}
}

// blocker is a caller-controlled matcher: it signals when a run
// starts and holds the worker until released (or its ctx ends).
type blocker struct {
	started chan struct{}
	release chan struct{}
}

func (b *blocker) Name() string { return "blocker" }
func (b *blocker) Match(p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	return b.MatchContext(context.Background(), p, delta)
}
func (b *blocker) MatchContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return matching.NewAnswerSet(nil), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestServerOverloadTyped drives a one-worker, one-slot server into
// overload and checks the typed rejection on both the queue-depth and
// per-tenant paths — then that nothing leaked.
func TestServerOverloadTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	tenants := testTenants(t, 7, 2, 1, 10)
	srv := NewServer(WithWorkers(1), WithQueueDepth(1), WithTenantConcurrency(1))
	addAll(t, srv, tenants)
	ctx := context.Background()
	pa := tenants[0].Personals()[0]
	pb := tenants[1].Personals()[0]

	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Match(ctx, tenants[0].Name, Request{Personal: pa, Delta: 0.4, System: bl}); err != nil {
			t.Errorf("blocked request failed: %v", err)
		}
	}()
	<-bl.started // tenant 0 occupies the only worker

	// Tenant 0 is at its concurrency limit: immediate typed rejection.
	_, err := srv.Match(ctx, tenants[0].Name, Request{Personal: pa, Delta: 0.4, Matcher: "exhaustive"})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("per-tenant overload err = %v, want ErrOverloaded", err)
	}

	// Tenant 1 may still queue (depth 1)... and the next submission
	// overflows the queue.
	bl2 := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Match(ctx, tenants[1].Name, Request{Personal: pb, Delta: 0.4, System: bl2}); err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}()
	// Wait until the queued job is really in the queue: submission
	// happens synchronously inside Match before it blocks on done, so
	// a short poll of the accepted counter suffices.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Accepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = srv.Match(ctx, tenants[1].Name, Request{Personal: pb, Delta: 0.4, Matcher: "exhaustive"})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("queue-full overload err = %v, want ErrOverloaded", err)
	}
	if n := srv.Stats().Overloaded; n < 2 {
		t.Errorf("overload counter = %d, want >= 2", n)
	}

	close(bl.release)
	close(bl2.release)
	wg.Wait()
	srv.Close()
	// Everything the overload path touched is released: workers joined,
	// no waiter goroutines survive.
	waitGoroutines(t, before)
	if got := srv.Stats().Completed; got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

// TestServerTenantEvictionSafety: with a residency bound of 1, a
// request in flight on a tenant survives that tenant's eviction (the
// evicted service finishes the work it holds), and the tenant is
// rebuilt transparently on its next request.
func TestServerTenantEvictionSafety(t *testing.T) {
	tenants := testTenants(t, 11, 2, 1, 15)
	srv := NewServer(WithWorkers(2), WithResidentTenants(1))
	defer srv.Close()
	addAll(t, srv, tenants)
	ctx := context.Background()
	pa := tenants[0].Personals()[0]
	pb := tenants[1].Personals()[0]

	svcA, err := srv.Service(tenants[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Match(ctx, tenants[0].Name, Request{Personal: pa, Delta: 0.4, System: bl}); err != nil {
			t.Errorf("in-flight request across eviction failed: %v", err)
		}
	}()
	<-bl.started

	// Touching tenant 1 evicts tenant 0 (bound 1) while its request is
	// mid-flight.
	if _, err := srv.Match(ctx, tenants[1].Name, Request{Personal: pb, Delta: 0.4, Matcher: "exhaustive"}); err != nil {
		t.Fatal(err)
	}
	stA, err := srv.TenantStats(tenants[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Resident {
		t.Error("tenant 0 still resident despite bound 1 and tenant 1 traffic")
	}
	if stA.InFlight != 1 {
		t.Errorf("tenant 0 InFlight = %d, want 1 (the blocked request)", stA.InFlight)
	}

	close(bl.release)
	wg.Wait()

	// The next request rebuilds the tenant's service from its
	// registration — a genuinely new instance with fresh sessions.
	if _, err := srv.Match(ctx, tenants[0].Name, Request{Personal: pa, Delta: 0.4, Matcher: "exhaustive"}); err != nil {
		t.Fatal(err)
	}
	svcA2, err := srv.Service(tenants[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if svcA2 == svcA {
		t.Error("evicted tenant's service was not rebuilt")
	}
}

// TestServerBatchBackpressure: a batch with more groups than the
// queue can hold at once completes fully — MatchBatch waits for its
// own earlier groups instead of failing fast.
func TestServerBatchBackpressure(t *testing.T) {
	tenants := testTenants(t, 13, 1, 4, 12)
	srv := NewServer(WithWorkers(1), WithQueueDepth(1))
	defer srv.Close()
	addAll(t, srv, tenants)

	// 4 distinct personals → 4 groups against worker 1 + queue 1.
	var batch []BatchRequest
	for _, p := range tenants[0].Personals() {
		batch = append(batch, BatchRequest{
			Tenant:  tenants[0].Name,
			Request: Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"},
		})
	}
	for i, r := range srv.MatchBatch(context.Background(), batch) {
		if r.Err != nil {
			t.Errorf("slot %d: %v — back-pressure should absorb the overflow", i, r.Err)
		} else if r.Result == nil {
			t.Errorf("slot %d: empty outcome", i)
		}
	}
	if n := srv.Stats().Overloaded; n != 0 {
		t.Errorf("overload counter observed %d transient rejections as terminal", n)
	}
}

// TestServerBatchPartialOverload: when saturation is EXTERNAL — here a
// per-tenant cap held by an outside request for the whole batch — the
// affected groups are rejected with the typed error while other
// tenants' requests in the same batch succeed, and every result slot
// is filled.
func TestServerBatchPartialOverload(t *testing.T) {
	tenants := testTenants(t, 13, 2, 2, 12)
	srv := NewServer(WithWorkers(2), WithQueueDepth(8), WithTenantConcurrency(1))
	defer srv.Close()
	addAll(t, srv, tenants)
	ctx := context.Background()
	hot, cold := tenants[0], tenants[1]

	// An external request pins hot's single concurrency token.
	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Match(ctx, hot.Name, Request{Personal: hot.Personals()[0], Delta: 0.4, System: bl})
	}()
	<-bl.started

	batch := []BatchRequest{
		{Tenant: hot.Name, Request: Request{Personal: hot.Personals()[0], Delta: 0.4, Matcher: "exhaustive"}},
		{Tenant: cold.Name, Request: Request{Personal: cold.Personals()[0], Delta: 0.4, Matcher: "exhaustive"}},
		{Tenant: hot.Name, Request: Request{Personal: hot.Personals()[1], Delta: 0.4, Matcher: "exhaustive"}},
	}
	res := srv.MatchBatch(ctx, batch)
	close(bl.release)
	wg.Wait()

	if !errors.Is(res[0].Err, ErrOverloaded) {
		t.Errorf("hot tenant slot 0 err = %v, want ErrOverloaded", res[0].Err)
	}
	if !errors.Is(res[2].Err, ErrOverloaded) {
		t.Errorf("hot tenant slot 2 err = %v, want ErrOverloaded", res[2].Err)
	}
	if res[1].Err != nil || res[1].Result == nil {
		t.Errorf("cold tenant slot: res=%v err=%v — other tenants must proceed", res[1].Result, res[1].Err)
	}
}

// TestServerFailedBuildRetries: a tenant whose factory fails is not
// poisoned — the error reaches the caller, and the next request gets a
// fresh build attempt even though the tenant was never LRU-evicted.
func TestServerFailedBuildRetries(t *testing.T) {
	tenants := testTenants(t, 31, 1, 1, 10)
	srv := NewServer(WithWorkers(1))
	defer srv.Close()
	attempts := 0
	repo := tenants[0].Repo()
	err := srv.Register("flaky", func() (*Service, error) {
		attempts++
		if attempts == 1 {
			return nil, fmt.Errorf("transient build failure")
		}
		return NewService(repo)
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := tenants[0].Personals()[0]
	if _, err := srv.Match(ctx, "flaky", Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"}); err == nil {
		t.Fatal("first request should surface the factory failure")
	}
	res, err := srv.Match(ctx, "flaky", Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"})
	if err != nil {
		t.Fatalf("second request did not retry the build: %v", err)
	}
	if res.Set == nil || attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one rebuild)", attempts)
	}
}

// TestServerTenantStatsDuringBuild polls TenantStats while the
// tenant's first build and first requests are in flight — under -race
// this pins that observers never race the lazy construction.
func TestServerTenantStatsDuringBuild(t *testing.T) {
	tenants := testTenants(t, 37, 1, 2, 15)
	srv := NewServer(WithWorkers(2))
	defer srv.Close()
	addAll(t, srv, tenants)
	name := tenants[0].Name
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := srv.TenantStats(name); err != nil {
					t.Errorf("TenantStats: %v", err)
					return
				}
			}
		}
	}()
	for _, p := range tenants[0].Personals() {
		if _, err := srv.Match(ctx, name, Request{Personal: p, Delta: 0.4, Matcher: "clustered:2"}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestServerBatchCoalescing: identical registry requests inside one
// batch group run a single search and share the immutable Result,
// with answers identical to a standalone call.
func TestServerBatchCoalescing(t *testing.T) {
	tenants := testTenants(t, 29, 1, 1, 15)
	srv := NewServer(WithWorkers(2))
	defer srv.Close()
	addAll(t, srv, tenants)
	name := tenants[0].Name
	p := tenants[0].Personals()[0]
	ctx := context.Background()

	req := Request{Personal: p, Delta: 0.4, Matcher: "beam:8"}
	batch := []BatchRequest{
		{Tenant: name, Request: req},
		{Tenant: name, Request: Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"}},
		{Tenant: name, Request: req}, // identical to slot 0
	}
	res := srv.MatchBatch(ctx, batch)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if res[0].Result != res[2].Result {
		t.Error("identical requests in one group were not coalesced")
	}
	if res[0].Result == res[1].Result {
		t.Error("distinct requests were wrongly coalesced")
	}
	want, err := srv.Match(ctx, name, req)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, "coalesced", res[2].Result.Set, want.Set)
}

// TestServerTenantStats pins the per-tenant observability: cache
// traffic accumulates across requests, in-flight drains to zero, and
// unknown tenants are typed errors.
func TestServerTenantStats(t *testing.T) {
	tenants := testTenants(t, 17, 1, 1, 15)
	srv := NewServer(WithWorkers(2))
	defer srv.Close()
	addAll(t, srv, tenants)
	name := tenants[0].Name
	p := tenants[0].Personals()[0]
	ctx := context.Background()

	st, err := srv.TenantStats(name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident {
		t.Error("tenant resident before any request")
	}
	if _, err := srv.Match(ctx, name, Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"}); err != nil {
		t.Fatal(err)
	}
	st, err = srv.TenantStats(name)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident {
		t.Error("tenant not resident after a request")
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after completion", st.InFlight)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Error("no scoring work recorded for a served tenant")
	}
	if _, err := srv.TenantStats("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant stats err = %v", err)
	}
}

// TestServerConcurrentMixedTenants hammers the server from many
// goroutines across tenants and specs under -race, with a residency
// bound tight enough to force evictions mid-traffic. Every response
// must match the per-tenant serial reference.
func TestServerConcurrentMixedTenants(t *testing.T) {
	tenants := testTenants(t, 19, 3, 2, 12)
	srv := NewServer(WithWorkers(4), WithResidentTenants(2), WithQueueDepth(64))
	defer srv.Close()
	addAll(t, srv, tenants)
	ctx := context.Background()
	specs := []string{"exhaustive", "beam:8", "topk:0.05"}

	// Serial reference, computed on throwaway services over the same
	// repositories so the server's own residency churn can't skew it.
	want := make(map[string]int)
	for _, tn := range tenants {
		svc, err := NewService(tn.Repo())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tn.Personals() {
			for _, sp := range specs {
				res, err := svc.Match(ctx, Request{Personal: p, Delta: 0.4, Matcher: sp})
				if err != nil {
					t.Fatal(err)
				}
				want[tn.Name+"/"+p.Name+"/"+sp] = res.Set.Len()
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for round := 0; round < 3; round++ {
		for _, tn := range tenants {
			for _, p := range tn.Personals() {
				for _, sp := range specs {
					wg.Add(1)
					go func(tn string, p *xmlschema.Schema, sp string) {
						defer wg.Done()
						res, err := srv.Match(ctx, tn, Request{Personal: p, Delta: 0.4, Matcher: sp})
						if errors.Is(err, ErrOverloaded) {
							return // admission rejections are legal under load
						}
						if err != nil {
							errs <- fmt.Errorf("%s/%s: %w", tn, sp, err)
							return
						}
						if got, w := res.Set.Len(), want[tn+"/"+p.Name+"/"+sp]; got != w {
							errs <- fmt.Errorf("%s/%s/%s: %d answers, want %d", tn, p.Name, sp, got, w)
						}
					}(tn.Name, p, sp)
				}
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerBatchFinishedNotDiscarded: a group that completed before
// the batch's ctx ended keeps its results — cancellation only marks
// work that genuinely did not finish.
func TestServerBatchFinishedNotDiscarded(t *testing.T) {
	tenants := testTenants(t, 41, 1, 2, 12)
	srv := NewServer(WithWorkers(2))
	defer srv.Close()
	addAll(t, srv, tenants)
	ps := tenants[0].Personals()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	batch := []BatchRequest{
		// Group 0 blocks; group 1 finishes while the drain waits on 0.
		{Tenant: tenants[0].Name, Request: Request{Personal: ps[0], Delta: 0.4, System: bl}},
		{Tenant: tenants[0].Name, Request: Request{Personal: ps[1], Delta: 0.4, Matcher: "exhaustive"}},
	}
	done := make(chan []BatchResult, 1)
	go func() { done <- srv.MatchBatch(ctx, batch) }()
	<-bl.started
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Completed < 1 { // group 1 has fully finished
		if time.Now().After(deadline) {
			t.Fatal("fast group never completed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // bl.release stays open: the blocker exits via ctx alone
	res := <-done
	if res[1].Err != nil || res[1].Result == nil {
		t.Errorf("finished group was discarded as cancelled: res=%v err=%v", res[1].Result, res[1].Err)
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("blocked group err = %v, want context.Canceled", res[0].Err)
	}
}

// TestServerBatchCancellation: a ctx that ends mid-batch yields
// ctx.Err() for the unfinished requests and leaks nothing.
func TestServerBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	tenants := testTenants(t, 23, 1, 1, 12)
	srv := NewServer(WithWorkers(1), WithQueueDepth(4))
	addAll(t, srv, tenants)
	p := tenants[0].Personals()[0]

	ctx, cancel := context.WithCancel(context.Background())
	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	batch := []BatchRequest{
		{Tenant: tenants[0].Name, Request: Request{Personal: p, Delta: 0.4, System: bl}},
	}
	done := make(chan []BatchResult, 1)
	go func() { done <- srv.MatchBatch(ctx, batch) }()
	<-bl.started
	cancel()
	res := <-done
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("cancelled batch slot err = %v, want context.Canceled", res[0].Err)
	}
	srv.Close()
	waitGoroutines(t, before)
}

// TestServerSlotWait pins the two waits of caller-run admission. A
// group waiting for an execution slot returns ctx.Err() as soon as its
// ctx ends and gives its place back: its counters balance and the next
// submission is admitted, not refused. And Close returns only once a
// request still running on its caller's goroutine has finished.
func TestServerSlotWait(t *testing.T) {
	tenants := testTenants(t, 43, 1, 1, 10)
	name := tenants[0].Name
	p := tenants[0].Personals()[0]
	// hold starts a blocker request in the background and returns once
	// it has taken the server's only slot; release lets it finish. A
	// failing test releases it too, before the server is closed.
	hold := func(t *testing.T, srv *Server) (release func(), held <-chan error) {
		bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := srv.Match(context.Background(), name, Request{Personal: p, Delta: 0.4, System: bl})
			done <- err
		}()
		<-bl.started
		release = sync.OnceFunc(func() { close(bl.release) })
		t.Cleanup(release)
		return release, done
	}
	waitAccepted := func(t *testing.T, srv *Server, n int64) {
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Accepted < n {
			if time.Now().After(deadline) {
				t.Fatalf("accepted %d groups, want %d", srv.Stats().Accepted, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("cancelled-waiter", func(t *testing.T) {
		srv := NewServer(WithWorkers(1), WithQueueDepth(1))
		t.Cleanup(srv.Close)
		addAll(t, srv, tenants)
		release, held := hold(t, srv)

		ctx, cancel := context.WithCancel(context.Background())
		waited := make(chan error, 1)
		go func() {
			_, err := srv.Match(ctx, name, Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"})
			waited <- err
		}()
		waitAccepted(t, srv, 2) // the waiter holds the only place in the wait list
		cancel()
		select {
		case err := <-waited:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter did not return while the slot stayed taken")
		}

		// The slot is still held: the next group can only be admitted
		// into the place the cancelled waiter gave back.
		next := make(chan error, 1)
		go func() {
			_, err := srv.Match(context.Background(), name, Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"})
			next <- err
		}()
		waitAccepted(t, srv, 3)
		release()
		if err := <-held; err != nil {
			t.Fatalf("slot holder: %v", err)
		}
		if err := <-next; err != nil {
			t.Fatalf("group admitted after the cancelled waiter: %v", err)
		}
		st := srv.Stats()
		if st.InFlight != 0 || st.Accepted != st.Completed || st.Overloaded != 0 {
			t.Fatalf("stats after the waits: in flight %d, accepted %d, completed %d, overloaded %d; want 0, equal, 0",
				st.InFlight, st.Accepted, st.Completed, st.Overloaded)
		}
	})

	t.Run("close-waits-for-running", func(t *testing.T) {
		srv := NewServer(WithWorkers(1))
		t.Cleanup(srv.Close)
		addAll(t, srv, tenants)
		release, held := hold(t, srv)
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while a request was still running")
		case <-time.After(50 * time.Millisecond):
		}
		release()
		if err := <-held; err != nil {
			t.Fatalf("running request failed across Close: %v", err)
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return after the running request finished")
		}
		if st := srv.Stats(); st.InFlight != 0 || st.Accepted != st.Completed {
			t.Fatalf("after Close: in flight %d, accepted %d, completed %d", st.InFlight, st.Accepted, st.Completed)
		}
	})
}

// TestServerBuildDeadline: a request whose ctx ends while its tenant's
// service is still being built returns ctx.Err() on time, from Match
// and from MatchBatch, and gives its admission back; the build goes on
// and serves the next request.
func TestServerBuildDeadline(t *testing.T) {
	tenants := testTenants(t, 47, 1, 1, 10)
	p := tenants[0].Personals()[0]
	srv := NewServer(WithWorkers(1))
	defer srv.Close()
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	repo := tenants[0].Repo()
	if err := srv.Register("slow", func() (*Service, error) {
		<-gate
		return NewService(repo)
	}); err != nil {
		t.Fatal(err)
	}
	req := Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"}
	// deadlined runs call with a 50 ms deadline and fails unless it
	// returns within a generous bound for loaded race runs; the build
	// stays blocked far longer.
	deadlined := func(what string, call func(ctx context.Context) []error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		done := make(chan []error, 1)
		go func() { done <- call(ctx) }()
		select {
		case errs := <-done:
			for i, err := range errs {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s on a blocked build: result %d err = %v, want context.DeadlineExceeded", what, i, err)
				}
			}
		case <-time.After(time.Second):
			t.Fatalf("%s did not return within 1s of a 50ms deadline", what)
		}
	}
	deadlined("Match", func(ctx context.Context) []error {
		_, err := srv.Match(ctx, "slow", req)
		return []error{err}
	})
	deadlined("MatchBatch", func(ctx context.Context) []error {
		var errs []error
		for _, r := range srv.MatchBatch(ctx, []BatchRequest{{Tenant: "slow", Request: req}, {Tenant: "slow", Request: req}}) {
			errs = append(errs, r.Err)
		}
		return errs
	})
	if st := srv.Stats(); st.InFlight != 0 || st.Accepted != st.Completed {
		t.Fatalf("after the deadlines: in flight %d, accepted %d, completed %d", st.InFlight, st.Accepted, st.Completed)
	}

	openGate()
	if _, err := srv.Match(context.Background(), "slow", req); err != nil {
		t.Fatalf("request after the build: %v", err)
	}
}
