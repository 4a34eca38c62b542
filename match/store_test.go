package match

import (
	"context"
	"errors"
	"testing"

	"repro/internal/store"
	"repro/internal/xmlschema"
)

// TestServiceWithStoreRecoversExactAnswers is the end-to-end durability
// contract at the match layer: a service appending through WithStore,
// killed (dropped) after a few updates, is recovered from the store
// alone via NewServiceFromSnapshot — at the exact pre-kill Version()
// and with bit-identical answer sets.
func TestServiceWithStoreRecoversExactAnswers(t *testing.T) {
	sc := testScenario(t, 7, 30)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ten := st.Tenant("t")

	svc, err := NewService(sc.Repo, WithStore(ten))
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.SaveBase(svc.Version(), svc.Repository()); err != nil {
		t.Fatal(err)
	}
	// Churn: add, replace, remove through the serving path.
	schemas := sc.Repo.Schemas()
	extra, err := schemas[0].CloneAs("extraA")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(extra)
	}); err != nil {
		t.Fatal(err)
	}
	repl, err := schemas[1].CloneAs(schemas[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Replace(repl)
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Remove(schemas[2].Name)
	}); err != nil {
		t.Fatal(err)
	}

	// "Crash": recover from the file alone.
	ts, err := st.Tenant("t").Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != svc.Version() {
		t.Fatalf("recovered version %d, live %d", ts.Version(), svc.Version())
	}
	recovered, err := NewServiceFromSnapshot(ts.Snapshot, WithStore(st.Tenant("t")))
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != svc.Version() {
		t.Fatalf("recovered service at version %d, want %d", recovered.Version(), svc.Version())
	}
	ctx := context.Background()
	for _, spec := range []string{"", "beam:16", "clustered"} {
		want, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: 0.4, Matcher: spec})
		if err != nil {
			t.Fatalf("live %q: %v", spec, err)
		}
		got, err := recovered.Match(ctx, Request{Personal: sc.Personal, Delta: 0.4, Matcher: spec})
		if err != nil {
			t.Fatalf("recovered %q: %v", spec, err)
		}
		sameSets(t, "recovered "+spec, want.Set, got.Set)
	}

	// The recovered service keeps appending onto the same log: its
	// update chains (no gap heal).
	more, err := extra.CloneAs("extraB")
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(more)
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Tenant("t").Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GapHeals != 0 {
		t.Fatalf("recovered service gap-healed (%d): appends do not chain", stats.GapHeals)
	}
	if stats.TailVersion != recovered.Version() {
		t.Fatalf("log tail %d, recovered service %d", stats.TailVersion, recovered.Version())
	}
}

// TestUpdateSurfacesAppendFailure pins the error contract: the swap
// sticks, the durability failure is reported.
func TestUpdateSurfacesAppendFailure(t *testing.T) {
	sc := testScenario(t, 8, 12)
	failing := &failingStore{}
	svc, err := NewService(sc.Repo, WithStore(failing))
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Version()
	extra, cerr := sc.Repo.Schemas()[0].CloneAs("extraA")
	if cerr != nil {
		t.Fatal(cerr)
	}
	err = svc.Update(func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(extra)
	})
	if !errors.Is(err, errStoreDown) {
		t.Fatalf("Update error %v, want errStoreDown", err)
	}
	if svc.Version() <= before {
		t.Fatal("failed append rolled back the in-memory swap")
	}
}

var errStoreDown = errors.New("store down")

type failingStore struct{}

func (f *failingStore) SaveBase(uint64, *xmlschema.Repository) error { return errStoreDown }
func (f *failingStore) AppendDiff(*xmlschema.Snapshot, xmlschema.Diff) error {
	return errStoreDown
}

// TestServerStoreDurableFromRegistration pins WithServerStore: the
// base is durable at AddTenant time (before any request), UpdateTenant
// appends chain, and the residency fast-forward path never double-logs
// (its replayed transition is a no-op append).
func TestServerStoreDurableFromRegistration(t *testing.T) {
	sc := testScenario(t, 11, 20)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One resident slot: the second tenant's build evicts the first, so
	// the first's next use exercises rebuild + fast-forward.
	srv := NewServer(WithResidentTenants(1), WithServerStore(func(tenant string) TenantStore {
		return st.Tenant(tenant)
	}))
	defer srv.Close()

	if err := srv.AddTenant("a", sc.Repo); err != nil {
		t.Fatal(err)
	}
	// Durable before any request touched the tenant.
	ts, err := st.Tenant("a").Load()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Version() != 1 {
		t.Fatalf("registration base at version %d, want 1", ts.Version())
	}

	extra, err := sc.Repo.Schemas()[0].CloneAs("extraA")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UpdateTenant("a", func(s *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return s.Add(extra)
	}); err != nil {
		t.Fatal(err)
	}

	// Evict tenant a by building b, then touch a again: the rebuilt
	// service fast-forwards and replays the (already durable) update.
	other := testScenario(t, 12, 15)
	if err := srv.AddTenant("b", other.Repo); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Match(context.Background(), "a", Request{Personal: sc.Personal, Delta: 0.3}); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Tenant("a").Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GapHeals != 0 {
		t.Fatalf("fast-forward caused %d gap heals", stats.GapHeals)
	}
	aStats, err := srv.TenantStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TailVersion != aStats.Version {
		t.Fatalf("log tail %d, serving version %d", stats.TailVersion, aStats.Version)
	}
}
