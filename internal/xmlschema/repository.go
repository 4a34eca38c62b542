package xmlschema

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Ref identifies one element globally across a repository: the schema
// name plus the schema-local element ID. Refs are the currency of the
// matching layer — answer sets, mappings and clusters all speak Refs.
type Ref struct {
	Schema string
	ID     int
}

// String renders the Ref as "schema#id".
func (r Ref) String() string { return fmt.Sprintf("%s#%d", r.Schema, r.ID) }

// Less orders Refs by schema name, then ID (for deterministic output).
func (r Ref) Less(o Ref) bool {
	if r.Schema != o.Schema {
		return r.Schema < o.Schema
	}
	return r.ID < o.ID
}

// Repository is a collection of uniquely named schemas with global
// element lookup. It is the "large schema repository" of the paper's
// matching problem.
type Repository struct {
	schemas map[string]*Schema
	order   []string
	// sealed marks a repository that backs a Snapshot: it is immutable
	// and Add fails with ErrSealed. See NewSnapshot. It is atomic
	// because one repository may back several lineages (one per
	// tenant), sealed by one while another already reads it.
	sealed atomic.Bool
	// vocab caches a sealed repository's Vocabulary.
	vocab atomic.Pointer[Vocabulary]
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{schemas: make(map[string]*Schema)}
}

// Add inserts s. Adding two schemas with the same name fails with
// ErrDuplicateSchema (the error string names the colliding schema);
// adding to a sealed repository fails with ErrSealed.
func (r *Repository) Add(s *Schema) error {
	if r.sealed.Load() {
		return ErrSealed
	}
	if s == nil {
		return fmt.Errorf("xmlschema: adding nil schema")
	}
	if _, dup := r.schemas[s.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSchema, s.Name)
	}
	r.schemas[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// Sealed reports whether the repository backs a Snapshot and rejects
// direct mutation.
func (r *Repository) Sealed() bool { return r.sealed.Load() }

// Schema returns the schema named name, or nil.
func (r *Repository) Schema(name string) *Schema { return r.schemas[name] }

// Schemas returns all schemas in insertion order.
func (r *Repository) Schemas() []*Schema {
	out := make([]*Schema, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.schemas[n])
	}
	return out
}

// Len returns the number of schemas.
func (r *Repository) Len() int { return len(r.order) }

// NumElements returns the total number of elements across all schemas —
// the size of the repository the paper's efficiency concern is about.
func (r *Repository) NumElements() int {
	n := 0
	for _, s := range r.schemas {
		n += s.Len()
	}
	return n
}

// Resolve returns the element identified by ref, or nil when either the
// schema or the ID is unknown.
func (r *Repository) Resolve(ref Ref) *Element {
	s := r.schemas[ref.Schema]
	if s == nil {
		return nil
	}
	return s.ByID(ref.ID)
}

// RefOf returns the Ref of an element that belongs to schema s.
func RefOf(s *Schema, e *Element) Ref { return Ref{Schema: s.Name, ID: e.id} }

// AllRefs returns the Refs of every element in the repository, ordered
// by schema insertion order and element ID.
func (r *Repository) AllRefs() []Ref {
	out := make([]Ref, 0, r.NumElements())
	for _, n := range r.order {
		s := r.schemas[n]
		for _, e := range s.byID {
			out = append(out, Ref{Schema: n, ID: e.id})
		}
	}
	return out
}

// SortRefs orders refs deterministically in place.
func SortRefs(refs []Ref) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
}

// Stats summarizes a repository for reports.
type Stats struct {
	Schemas   int
	Elements  int
	MaxDepth  int
	MeanSize  float64
	LeafRatio float64
}

// ComputeStats walks the repository once and returns summary figures.
func (r *Repository) ComputeStats() Stats {
	st := Stats{Schemas: r.Len()}
	leaves := 0
	for _, s := range r.Schemas() {
		st.Elements += s.Len()
		if h := s.Root().Height(); h > st.MaxDepth {
			st.MaxDepth = h
		}
		s.Walk(func(e *Element) bool {
			if e.IsLeaf() {
				leaves++
			}
			return true
		})
	}
	if st.Schemas > 0 {
		st.MeanSize = float64(st.Elements) / float64(st.Schemas)
	}
	if st.Elements > 0 {
		st.LeafRatio = float64(leaves) / float64(st.Elements)
	}
	return st
}
