package xmlschema

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Typed mutation errors. Callers branch on them with errors.Is; the
// wrapped forms carry the offending schema name.
var (
	// ErrDuplicateSchema is returned when a schema is added under a
	// name the repository (or snapshot) already holds.
	ErrDuplicateSchema = errors.New("xmlschema: duplicate schema name")
	// ErrUnknownSchema is returned when a snapshot mutation names a
	// schema the snapshot does not hold.
	ErrUnknownSchema = errors.New("xmlschema: unknown schema")
	// ErrSealed is returned by Repository.Add on a repository that
	// backs a Snapshot: snapshot repositories are immutable and must be
	// mutated through Snapshot.Add/Remove/Replace instead.
	ErrSealed = errors.New("xmlschema: repository is sealed (backs a snapshot); mutate via Snapshot")
)

// Snapshot is an immutable, versioned view of a schema repository.
// Mutations (Add, Remove, Replace) are copy-on-write: they return a new
// Snapshot sharing every unchanged *Schema with the old one, and the
// old Snapshot stays fully valid — in-flight searches, cost tables and
// cluster indexes built against it keep working unchanged. Versions are
// monotonically increasing within one lineage (every snapshot derived,
// directly or transitively, from the same NewSnapshot call), so a newer
// snapshot always carries a larger Version.
//
// Because unchanged schemas are shared by pointer, the difference
// between any two snapshots of a lineage is computable in O(schemas)
// pointer comparisons — see DiffSnapshots.
type Snapshot struct {
	repo    *Repository
	version uint64
	counter *atomic.Uint64
}

// NewSnapshot wraps repo as version 1 of a new snapshot lineage. The
// repository is sealed: further Repository.Add calls fail with
// ErrSealed, and all mutation goes through the returned Snapshot. The
// schemas themselves are shared, not copied — they are immutable after
// NewSchema by contract.
func NewSnapshot(repo *Repository) (*Snapshot, error) {
	if repo == nil {
		return nil, fmt.Errorf("xmlschema: nil repository")
	}
	repo.sealed.Store(true)
	counter := new(atomic.Uint64)
	counter.Store(1)
	return &Snapshot{repo: repo, version: 1, counter: counter}, nil
}

// RestoreSnapshot wraps repo as a new snapshot lineage whose first
// snapshot carries the given version instead of 1 — the durable-store
// recovery path, where a repository reconstructed from a base record
// must resume the version numbering of the lineage it was persisted
// from. Later derives continue past version as usual.
func RestoreSnapshot(repo *Repository, version uint64) (*Snapshot, error) {
	if version < 1 {
		return nil, fmt.Errorf("xmlschema: restore version %d < 1", version)
	}
	s, err := NewSnapshot(repo)
	if err != nil {
		return nil, err
	}
	s.version = version
	s.counter.Store(version)
	return s, nil
}

// AtVersion returns a snapshot of the same repository pinned at
// version v ≥ the receiver's version, raising the lineage counter so
// later derives continue past v. It exists for diff-log replay: one
// logical update can derive several intermediate snapshots (bumping
// the version by more than one), and replaying its collapsed diff must
// still land on exactly the version the original update reached.
func (s *Snapshot) AtVersion(v uint64) (*Snapshot, error) {
	if v < s.version {
		return nil, fmt.Errorf("xmlschema: version %d behind snapshot version %d", v, s.version)
	}
	if v == s.version {
		return s, nil
	}
	for {
		cur := s.counter.Load()
		if cur >= v || s.counter.CompareAndSwap(cur, v) {
			break
		}
	}
	return &Snapshot{repo: s.repo, version: v, counter: s.counter}, nil
}

// Version returns the snapshot's monotonic version within its lineage.
func (s *Snapshot) Version() uint64 { return s.version }

// Repository returns the sealed repository backing this snapshot. It is
// safe to share with any reader (matchers, index builds); writes fail.
func (s *Snapshot) Repository() *Repository { return s.repo }

// Schemas returns the snapshot's schemas in insertion order.
func (s *Snapshot) Schemas() []*Schema { return s.repo.Schemas() }

// Schema returns the schema named name, or nil.
func (s *Snapshot) Schema(name string) *Schema { return s.repo.Schema(name) }

// Len returns the number of schemas.
func (s *Snapshot) Len() int { return s.repo.Len() }

// derive returns a new snapshot of the same lineage over repo, with the
// next version of the lineage counter.
func (s *Snapshot) derive(repo *Repository) *Snapshot {
	repo.sealed.Store(true)
	return &Snapshot{repo: repo, version: s.counter.Add(1), counter: s.counter}
}

// clone returns a mutable copy of the snapshot's repository: fresh map
// and order, shared *Schema values.
func (s *Snapshot) clone() *Repository {
	cp := &Repository{
		schemas: make(map[string]*Schema, len(s.repo.schemas)),
		order:   append([]string(nil), s.repo.order...),
	}
	for n, sch := range s.repo.schemas {
		cp.schemas[n] = sch
	}
	return cp
}

// Add returns a new snapshot additionally holding schemas. Adding a
// nil schema or a name the snapshot already holds (including a
// duplicate within the arguments) fails with ErrDuplicateSchema and
// produces no new snapshot.
func (s *Snapshot) Add(schemas ...*Schema) (*Snapshot, error) {
	cp := s.clone()
	for _, sch := range schemas {
		if sch == nil {
			return nil, fmt.Errorf("xmlschema: adding nil schema")
		}
		if _, dup := cp.schemas[sch.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateSchema, sch.Name)
		}
		cp.schemas[sch.Name] = sch
		cp.order = append(cp.order, sch.Name)
	}
	return s.derive(cp), nil
}

// Remove returns a new snapshot without the named schemas. Removing a
// name the snapshot does not hold fails with ErrUnknownSchema.
func (s *Snapshot) Remove(names ...string) (*Snapshot, error) {
	cp := s.clone()
	for _, name := range names {
		if _, ok := cp.schemas[name]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, name)
		}
		delete(cp.schemas, name)
	}
	kept := cp.order[:0]
	for _, n := range cp.order {
		if _, ok := cp.schemas[n]; ok {
			kept = append(kept, n)
		}
	}
	cp.order = kept
	return s.derive(cp), nil
}

// Replace returns a new snapshot where each schema substitutes the
// current schema of the same name, keeping its position in insertion
// order. Replacing a name the snapshot does not hold fails with
// ErrUnknownSchema.
func (s *Snapshot) Replace(schemas ...*Schema) (*Snapshot, error) {
	cp := s.clone()
	for _, sch := range schemas {
		if sch == nil {
			return nil, fmt.Errorf("xmlschema: replacing with nil schema")
		}
		if _, ok := cp.schemas[sch.Name]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, sch.Name)
		}
		cp.schemas[sch.Name] = sch
	}
	return s.derive(cp), nil
}

// SchemaChange is one replaced schema of a Diff: the schema the old
// snapshot held under the name, and the one the new snapshot holds.
type SchemaChange struct {
	Old, New *Schema
}

// Diff describes how one snapshot differs from another, schema by
// schema. It compares pointers, not content: a schema held by the same
// *Schema in both snapshots never appears, and a name held by
// different *Schema values is Replaced even when the two trees are
// equal. Diffs drive incremental maintenance — index and cost table
// updates touch exactly the schemas listed here — so a mutation that
// wants a small diff must keep the current *Schema of every schema it
// does not change (the HTTP admin PUT keeps every schema whose tree is
// Equal to the served one).
type Diff struct {
	// From and To are the versions the diff leads between.
	From, To uint64
	// Added holds schemas present only in the target snapshot, in its
	// insertion order.
	Added []*Schema
	// Removed holds schemas present only in the source snapshot, in its
	// insertion order.
	Removed []*Schema
	// Replaced holds same-name schema substitutions, in the target's
	// insertion order.
	Replaced []SchemaChange
}

// Empty reports whether the diff changes nothing.
func (d Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Replaced) == 0
}

// NumChanged returns the number of schema-level changes.
func (d Diff) NumChanged() int {
	return len(d.Added) + len(d.Removed) + len(d.Replaced)
}

// DiffSnapshots computes the schema-level difference between two
// snapshots by pointer comparison — O(schemas), independent of schema
// sizes, thanks to structural sharing. It works across arbitrary
// snapshots (not only parent/child), including snapshots of different
// lineages, as long as unchanged schemas are shared by pointer.
func DiffSnapshots(from, to *Snapshot) Diff {
	d := Diff{From: from.version, To: to.version}
	for _, n := range to.repo.order {
		ns := to.repo.schemas[n]
		os, ok := from.repo.schemas[n]
		switch {
		case !ok:
			d.Added = append(d.Added, ns)
		case os != ns:
			d.Replaced = append(d.Replaced, SchemaChange{Old: os, New: ns})
		}
	}
	for _, n := range from.repo.order {
		if _, ok := to.repo.schemas[n]; !ok {
			d.Removed = append(d.Removed, from.repo.schemas[n])
		}
	}
	return d
}
