package match

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// mutateReplaceWithClone returns a mutation replacing the named schema
// with a clone of another schema under the same name.
func mutateReplaceWithClone(victim, donor string) func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
	return func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		repl, err := snap.Schema(donor).CloneAs(victim)
		if err != nil {
			return nil, err
		}
		return snap.Replace(repl)
	}
}

// TestServiceUpdateBaselineParity applies a sequence of updates (add,
// replace, remove) to a warm service and checks, after every step,
// that the patched baseline answer set is exactly what a from-scratch
// service over the same repository computes — the session patching in
// Update must be invisible in results.
func TestServiceUpdateBaselineParity(t *testing.T) {
	sc := testScenario(t, 9, 24)
	svc, err := NewService(sc.Repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := svc.Baseline(ctx, sc.Personal); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name   string
		mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)
	}{
		{"add", func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			clone, err := snap.Schemas()[2].CloneAs("updadd")
			if err != nil {
				return nil, err
			}
			return snap.Add(clone)
		}},
		{"replace", mutateReplaceWithClone(sc.Repo.Schemas()[0].Name, sc.Repo.Schemas()[1].Name)},
		{"remove", func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return snap.Remove("updadd")
		}},
	}
	for i, step := range steps {
		before := svc.Version()
		if err := svc.Update(step.mutate); err != nil {
			t.Fatalf("step %s: %v", step.name, err)
		}
		if svc.Version() <= before {
			t.Fatalf("step %s: version did not advance (%d -> %d)", step.name, before, svc.Version())
		}
		got, _, err := svc.Baseline(ctx, sc.Personal)
		if err != nil {
			t.Fatalf("step %s: baseline: %v", step.name, err)
		}
		fresh, err := NewService(svc.Snapshot().Repository())
		if err != nil {
			t.Fatalf("step %s: fresh service: %v", step.name, err)
		}
		want, _, err := fresh.Baseline(ctx, sc.Personal)
		if err != nil {
			t.Fatalf("step %s: fresh baseline: %v", step.name, err)
		}
		sameSets(t, fmt.Sprintf("step %d (%s)", i, step.name), got, want)
	}
}

// TestServiceUpdateKeepsWarmSessions proves the invalidation is
// surgical: after a single-schema replace, the warm session survives
// into the new generation with its cost tables and patched baseline
// already built, old-generation entries are retired, and a follow-up
// request scores no pairs (the rebased tables already hold every
// score).
func TestServiceUpdateKeepsWarmSessions(t *testing.T) {
	sc := testScenario(t, 4, 20)
	svc, err := NewService(sc.Repo, WithTruth(newTestTruth(sc)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := svc.Baseline(ctx, sc.Personal); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Index(); err != nil {
		t.Fatal(err)
	}
	oldGen := svc.currentState().gen

	if err := svc.Update(mutateReplaceWithClone(
		sc.Repo.Schemas()[3].Name, sc.Repo.Schemas()[4].Name)); err != nil {
		t.Fatal(err)
	}
	nst := svc.currentState()
	if nst.gen != oldGen+1 {
		t.Fatalf("generation %d after update, want %d", nst.gen, oldGen+1)
	}

	// The warm session was rebased into the new generation eagerly:
	// problem and baseline are present without any new request.
	svc.mu.Lock()
	e, ok := svc.sessions.Peek(sessionKey{personal: sc.Personal, gen: nst.gen})
	stale := 0
	svc.sessions.Each(func(k sessionKey, _ *session) {
		if k.gen != nst.gen {
			stale++
		}
	})
	svc.mu.Unlock()
	if !ok {
		t.Fatal("warm session not carried into the new generation")
	}
	if stale != 0 {
		t.Fatalf("%d stale-generation sessions survived the update", stale)
	}
	_, _, probDone := e.prob.Built()
	e.mu.Lock()
	baseSet := e.baseSet
	e.mu.Unlock()
	if !probDone || baseSet == nil {
		t.Fatalf("carried session cold: probDone=%v baseline=%v", probDone, baseSet != nil)
	}

	// The incremental index was applied, not rebuilt lazily — and a
	// later Index() call adopts it instead of firing a full build.
	appliedIx, _, done := nst.builtIndex()
	if !done {
		t.Fatal("updated state has no pre-applied index")
	}
	gotIx, err := svc.Index()
	if err != nil {
		t.Fatal(err)
	}
	if gotIx != appliedIx {
		t.Fatal("Index() after update rebuilt from scratch instead of adopting the applied index")
	}

	// An exhaustive request at a sub-horizon δ re-scores nothing: every
	// pair involved is either in a transferred table or was scored
	// during the update's rebase.
	res, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: 0.3, Matcher: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cache.Misses != 0 {
		t.Fatalf("post-update request re-scored %d pairs; warm caches lost", res.Stats.Cache.Misses)
	}
}

// TestServiceUpdateInFlightIsolation pins a slow request to the old
// snapshot, swaps mid-flight, and checks the request completes with
// exactly the pre-update answer set.
func TestServiceUpdateInFlightIsolation(t *testing.T) {
	sc := testScenario(t, 6, 20)
	svc, err := NewService(sc.Repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: 0.45, Matcher: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}

	// Pin the old state explicitly (the exported Match pins internally;
	// using matchAt makes the race deterministic for the test).
	st := svc.currentState()
	done := make(chan struct{})
	var got *Result
	var gotErr error
	go func() {
		defer close(done)
		got, gotErr = svc.matchAt(ctx, st, Request{Personal: sc.Personal, Delta: 0.45, Matcher: "exhaustive"})
	}()
	if err := svc.Update(func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return snap.Remove(sc.Repo.Schemas()[0].Name)
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	sameSets(t, "in-flight vs pre-update", got.Set, want.Set)

	// A request admitted after the swap sees the new repository.
	after, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: 0.45, Matcher: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	removed := sc.Repo.Schemas()[0].Name
	for _, a := range after.Set.All() {
		if a.Mapping.Schema == removed {
			t.Fatalf("post-update answer maps into removed schema %q", removed)
		}
	}
}

// TestServiceUpdateValidation covers the rejected mutations: error,
// nil snapshot, emptied repository. All must leave the service
// unchanged.
func TestServiceUpdateValidation(t *testing.T) {
	sc := testScenario(t, 8, 6)
	svc, err := NewService(sc.Repo)
	if err != nil {
		t.Fatal(err)
	}
	v := svc.Version()
	boom := errors.New("boom")
	if err := svc.Update(func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("mutate error not propagated: %v", err)
	}
	if err := svc.Update(func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := svc.Update(nil); err == nil {
		t.Fatal("nil mutate accepted")
	}
	if err := svc.Update(func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		names := make([]string, 0, snap.Len())
		for _, s := range snap.Schemas() {
			names = append(names, s.Name)
		}
		return snap.Remove(names...)
	}); err == nil {
		t.Fatal("emptying update accepted")
	}
	// No-op: returning the input snapshot.
	if err := svc.Update(func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return snap, nil
	}); err != nil {
		t.Fatal(err)
	}
	if svc.Version() != v {
		t.Fatalf("rejected/no-op updates moved the version: %d -> %d", v, svc.Version())
	}
	// ErrUnknownSchema surfaces typed through Update.
	if err := svc.Update(func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return snap.Remove("no-such-schema")
	}); !errors.Is(err, xmlschema.ErrUnknownSchema) {
		t.Fatalf("unknown-schema removal: err = %v, want ErrUnknownSchema", err)
	}
}

// TestServerUpdateTenantSwapSemantics is the swap-semantics stress
// test: concurrent UpdateTenant + Match + MatchBatch traffic across N
// swaps must never observe a torn version — every result's answer
// count equals the count of exactly one version (precomputed from
// fresh services), batch groups are internally consistent — and the
// server must end with no goroutine leaks and only current-generation
// sessions.
func TestServerUpdateTenantSwapSemantics(t *testing.T) {
	tenants := testTenants(t, 11, 2, 1, 12)
	tn := tenants[0]
	personal := tn.Personals()[0]
	const delta = 0.45
	const swaps = 5

	// Each swap adds a uniquely named clone of the schema holding the
	// current best answer, so every version has a strictly growing —
	// hence distinct — exhaustive answer count. The donor is found on a
	// content-identical shadow copy of the repository, which also
	// precomputes the legal answer count of every version.
	ctx := context.Background()
	shadowSnap, err := xmlschema.NewSnapshot(cloneRepo(t, tn.Repo()))
	if err != nil {
		t.Fatal(err)
	}
	var donor string
	{
		svc, err := NewService(shadowSnap.Repository())
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Match(ctx, Request{Personal: personal, Delta: delta, Matcher: "exhaustive"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Set.Len() == 0 {
			t.Fatal("corpus yields no answers — pick another seed")
		}
		donor = res.Set.All()[0].Mapping.Schema
	}
	mutateStep := func(i int) func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			clone, err := snap.Schema(donor).CloneAs(fmt.Sprintf("swap%d", i))
			if err != nil {
				return nil, err
			}
			return snap.Add(clone)
		}
	}
	legal := make(map[int]bool)
	{
		snap := shadowSnap
		for i := 0; i <= swaps; i++ {
			svc, err := NewService(snap.Repository())
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.Match(ctx, Request{Personal: personal, Delta: delta, Matcher: "exhaustive"})
			if err != nil {
				t.Fatal(err)
			}
			if legal[res.Set.Len()] {
				t.Fatalf("version %d repeats answer count %d — test cannot distinguish versions", i, res.Set.Len())
			}
			legal[res.Set.Len()] = true
			if i < swaps {
				snap, err = mutateStep(i)(snap)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	baseGoroutines := runtime.NumGoroutine()
	srv := NewServer(WithWorkers(4), WithQueueDepth(64))
	addAll(t, srv, tenants)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var violations []string
	record := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					res, err := srv.Match(ctx, tn.Name, Request{Personal: personal, Delta: delta, Matcher: "exhaustive"})
					if err != nil {
						if !errors.Is(err, ErrOverloaded) {
							record("match: %v", err)
							return
						}
						continue
					}
					if !legal[res.Set.Len()] {
						record("torn result: %d answers matches no version", res.Set.Len())
						return
					}
					continue
				}
				batch := []BatchRequest{
					{Tenant: tn.Name, Request: Request{Personal: personal, Delta: delta, Matcher: "exhaustive"}},
					{Tenant: tn.Name, Request: Request{Personal: personal, Delta: delta, Matcher: "exhaustive", Limit: 1}},
				}
				rs := srv.MatchBatch(ctx, batch)
				var counts []int
				for _, r := range rs {
					if r.Err != nil {
						if !errors.Is(r.Err, ErrOverloaded) {
							record("batch: %v", r.Err)
							return
						}
						continue
					}
					if !legal[r.Result.Set.Len()] {
						record("torn batch result: %d answers", r.Result.Set.Len())
						return
					}
					counts = append(counts, r.Result.Set.Len())
				}
				// A group never mixes versions: both requests of the
				// group must report the same version's count.
				if len(counts) == 2 && counts[0] != counts[1] {
					record("group mixed versions: %d vs %d answers", counts[0], counts[1])
					return
				}
			}
		}(w)
	}

	for i := 0; i < swaps; i++ {
		if err := srv.UpdateTenant(tn.Name, mutateStep(i)); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	for _, v := range violations {
		t.Error(v)
	}

	// After quiescing: the tenant serves the final version and its
	// service holds only current-generation sessions.
	svc, err := srv.Service(tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Match(ctx, Request{Personal: personal, Delta: delta, Matcher: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	finalGen := svc.currentState().gen
	svc.mu.Lock()
	staleSessions := 0
	total := 0
	svc.sessions.Each(func(k sessionKey, _ *session) {
		total++
		if k.gen != finalGen {
			staleSessions++
		}
	})
	svc.mu.Unlock()
	if staleSessions != 0 {
		t.Errorf("%d stale-generation sessions leaked after %d swaps (of %d)", staleSessions, swaps, total)
	}
	_ = res
	ts, err := srv.TenantStats(tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version != uint64(swaps+1) {
		t.Errorf("tenant version %d after %d swaps, want %d", ts.Version, swaps, swaps+1)
	}

	srv.Close()
	waitGoroutines(t, baseGoroutines)
}

// TestServerUpdateTenantSurvivesEviction updates a tenant, evicts it
// by touching other tenants past the residency bound, and checks the
// rebuilt service fast-forwards to the updated snapshot instead of
// reverting to the registration-time repository.
func TestServerUpdateTenantSurvivesEviction(t *testing.T) {
	tenants := testTenants(t, 13, 3, 1, 10)
	srv := NewServer(WithWorkers(2), WithResidentTenants(1))
	defer srv.Close()
	addAll(t, srv, tenants)
	tn := tenants[0]

	if err := srv.UpdateTenant(tn.Name, func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		clone, err := snap.Schemas()[0].CloneAs("evicttest")
		if err != nil {
			return nil, err
		}
		return snap.Add(clone)
	}); err != nil {
		t.Fatal(err)
	}

	// Evict tenant 0 by making the other tenants resident.
	ctx := context.Background()
	for _, other := range tenants[1:] {
		if _, err := srv.Match(ctx, other.Name, Request{
			Personal: other.Personals()[0], Delta: 0.3, Matcher: "exhaustive",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if ts, err := srv.TenantStats(tn.Name); err != nil || ts.Resident {
		t.Fatalf("tenant not evicted (resident=%v err=%v)", ts.Resident, err)
	}

	// The rebuilt service must serve the updated snapshot.
	svc, err := srv.Service(tn.Name)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Snapshot().Schema("evicttest") == nil {
		t.Fatal("rebuilt tenant lost the live update")
	}
}

// TestUpdateTenantErrors covers unknown tenants, nil mutations, and
// closed servers.
func TestUpdateTenantErrors(t *testing.T) {
	tenants := testTenants(t, 17, 1, 1, 8)
	srv := NewServer(WithWorkers(1))
	addAll(t, srv, tenants)
	noop := func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) { return s, nil }
	if err := srv.UpdateTenant("ghost", noop); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v", err)
	}
	if err := srv.UpdateTenant(tenants[0].Name, nil); err == nil {
		t.Fatal("nil mutate accepted")
	}
	if err := srv.UpdateTenant(tenants[0].Name, noop); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := srv.UpdateTenant(tenants[0].Name, noop); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed server: err = %v", err)
	}
}

// cloneRepo deep-copies a repository so tests can snapshot it without
// sealing the shared fixture.
func cloneRepo(t *testing.T, repo *xmlschema.Repository) *xmlschema.Repository {
	t.Helper()
	cp := xmlschema.NewRepository()
	for _, s := range repo.Schemas() {
		c, err := s.CloneAs(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// TestUpdatePrunesRetiredNames pins that nothing of a retired schema
// is scored again: an update that only removes it scores no pairs, its
// unique name leaves the served vocabulary, a later update that adds a
// schema scores only that schema's new name, and the warm problem
// carried across both updates holds the name costs of a fresh build.
func TestUpdatePrunesRetiredNames(t *testing.T) {
	sc := testScenario(t, 6, 12)
	svc, err := NewService(sc.Repo)
	if err != nil {
		t.Fatal(err)
	}
	kept := sc.Repo.Schemas()[0].Root().Name
	const unique, fresh = "retiredonlyname", "freshonlyname"
	schemaWith := func(schema, name string) *xmlschema.Schema {
		s, err := xmlschema.NewSchema(schema, xmlschema.NewElement(name).Add(xmlschema.NewElement(kept)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(schemaWith("retiree", unique))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Problem(sc.Personal); err != nil {
		t.Fatal(err)
	}
	pairs := func() int64 {
		st, ok := svc.CacheStats()
		if !ok {
			t.Fatal("service scorer keeps no counters")
		}
		return st.Misses
	}

	before := pairs()
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) { return s.Remove("retiree") }); err != nil {
		t.Fatal(err)
	}
	if got := pairs() - before; got != 0 {
		t.Errorf("removing a schema scored %d pairs, want 0", got)
	}
	vocab := svc.Snapshot().Repository().Vocabulary()
	if _, ok := vocab.Index(unique); ok {
		t.Errorf("retired name %q is still in the served vocabulary", unique)
	}
	if _, ok := vocab.Index(kept); !ok {
		t.Errorf("live name %q left the served vocabulary", kept)
	}

	distinct := map[string]bool{}
	for _, pe := range sc.Personal.Elements() {
		distinct[pe.Name] = true
	}
	before = pairs()
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(schemaWith("newcomer", fresh))
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := pairs()-before, int64(len(distinct)); got != want {
		t.Errorf("adding a schema with one new name scored %d pairs, want %d (one per distinct personal name)", got, want)
	}

	warm, err := svc.Problem(sc.Personal)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := matching.NewProblem(sc.Personal, svc.Snapshot().Repository(), svc.matchCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range svc.Snapshot().Repository().Schemas() {
		for pid := 0; pid < sc.Personal.Len(); pid++ {
			for rid := 0; rid < s.Len(); rid++ {
				if w, c := warm.NameCost(s, pid, rid), cold.NameCost(s, pid, rid); w != c {
					t.Fatalf("%s: NameCost(%d, %d) = %v after the updates, want %v as built fresh", s.Name, pid, rid, w, c)
				}
			}
		}
	}
}
