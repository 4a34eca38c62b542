// Durable-store integration. The match layer does not know how bytes
// reach disk — it talks to a TenantStore (internal/store.Tenant
// implements it) and guarantees ordering: the diff of an Update is
// appended only after the in-memory swap succeeded, so the store never
// records a transition the service refused.

package match

import (
	"fmt"

	"repro/internal/xmlschema"
)

// TenantStore is the durability contract a Service appends through.
// Implementations must be safe for concurrent use and idempotent under
// replayed transitions: AppendDiff with a diff the log already covers
// (diff.To at or behind the durable tail) must be a no-op, and a diff
// that does not chain onto the tail must be healed (e.g. by persisting
// a full base from next) rather than rejected — the serving layer
// legitimately replays transitions during residency fast-forwards.
// internal/store.Tenant is the canonical implementation.
type TenantStore interface {
	// SaveBase persists repo as a full snapshot at version, replacing
	// any previous durable state of the tenant.
	SaveBase(version uint64, repo *xmlschema.Repository) error
	// AppendDiff makes the transition to snapshot next (described by
	// diff, with diff.To == next.Version()) durable.
	AppendDiff(next *xmlschema.Snapshot, diff xmlschema.Diff) error
}

// WithStore attaches a durable store to the service: every successful
// Update appends its diff after the in-memory swap. An append failure
// is returned from Update wrapped as a durability error — the swap is
// NOT rolled back (requests already see the new snapshot), the caller
// decides whether to retry, heal, or alert. See the package
// documentation's durability section.
func WithStore(ts TenantStore) Option { return func(c *config) { c.store = ts } }

// NewServiceFromSnapshot builds a service over an existing repository
// snapshot — the recovery path: a snapshot replayed from a durable log
// keeps its persisted Version() instead of restarting at 1, so diffs
// appended by later Updates chain onto the log's tail. Options are
// those of NewService.
func NewServiceFromSnapshot(snap *xmlschema.Snapshot, opts ...Option) (*Service, error) {
	if snap == nil {
		return nil, fmt.Errorf("match: nil snapshot")
	}
	return newService(func() (*xmlschema.Snapshot, error) { return snap, nil }, opts...)
}

// WithServerStore attaches a per-tenant durable store provider to the
// server: every tenant added with AddTenant gets WithStore(provider(
// name)) appended to its service options, plus an eager SaveBase of
// its registration repository, so a tenant is durable from the moment
// it is registered — not from its first request. A nil provider result
// leaves that tenant un-persisted. Tenants registered through Register
// with a custom factory are unaffected (the factory attaches its own
// store; the recovery path does exactly that).
func WithServerStore(provider func(tenant string) TenantStore) ServerOption {
	return func(c *serverConfig) { c.storeFor = provider }
}
