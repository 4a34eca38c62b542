// Package xmlschema models XML schemas as rooted, ordered, labeled
// trees — the representation used throughout the reproduced paper's
// line of work (Smiljanić et al., DEXA 2005): a schema matching problem
// matches a small personal schema tree against schemas in a large
// repository, and a schema mapping assigns every personal-schema
// element to one repository element.
//
// The package supplies the tree model, construction and validation,
// navigation (paths, ancestors, traversal), and an XML serialization so
// corpora can be written to and read from disk.
package xmlschema

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Element is one node of a schema tree: a named, optionally typed XML
// element with ordered children. Elements belong to exactly one Schema
// and carry a schema-local integer ID assigned in pre-order during
// Schema construction (the root always has ID 0).
type Element struct {
	// Name is the element tag name (e.g. "author").
	Name string
	// Type is an optional simple-type annotation (e.g. "string", "int").
	Type string
	// Children are the ordered sub-elements.
	Children []*Element

	id     int
	parent *Element
}

// NewElement returns a leaf element with the given name.
func NewElement(name string) *Element { return &Element{Name: name} }

// NewTypedElement returns a leaf element with a name and a type.
func NewTypedElement(name, typ string) *Element { return &Element{Name: name, Type: typ} }

// Add appends children to e and returns e for chaining.
func (e *Element) Add(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// ID returns the schema-local identifier assigned by Schema
// construction (pre-order, root = 0). It is 0 for unattached elements.
func (e *Element) ID() int { return e.id }

// Parent returns the parent element, or nil for the root or an
// unattached element.
func (e *Element) Parent() *Element { return e.parent }

// IsLeaf reports whether e has no children.
func (e *Element) IsLeaf() bool { return len(e.Children) == 0 }

// Depth returns the number of edges from e up to its root.
func (e *Element) Depth() int {
	d := 0
	for p := e.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Ancestors returns e's ancestors from parent to root.
func (e *Element) Ancestors() []*Element {
	var out []*Element
	for p := e.parent; p != nil; p = p.parent {
		out = append(out, p)
	}
	return out
}

// HasAncestor reports whether anc is a proper ancestor of e.
func (e *Element) HasAncestor(anc *Element) bool {
	for p := e.parent; p != nil; p = p.parent {
		if p == anc {
			return true
		}
	}
	return false
}

// Path returns the slash-separated name path from the root to e,
// e.g. "library/book/title".
func (e *Element) Path() string {
	names := []string{e.Name}
	for p := e.parent; p != nil; p = p.parent {
		names = append(names, p.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, "/")
}

// Walk visits e and its descendants in pre-order, stopping early when
// visit returns false for a subtree (children of a rejected node are
// skipped, traversal of siblings continues).
func (e *Element) Walk(visit func(*Element) bool) {
	if !visit(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(visit)
	}
}

// Size returns the number of elements in the subtree rooted at e.
func (e *Element) Size() int {
	n := 0
	e.Walk(func(*Element) bool { n++; return true })
	return n
}

// Height returns the number of edges on the longest downward path
// from e.
func (e *Element) Height() int {
	h := 0
	for _, c := range e.Children {
		if ch := c.Height() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// Schema is a named, validated schema tree with pre-order element IDs,
// an ID index for O(1) lookup, and a flat pre-order layout (Depths,
// Ends) that lets search loops visit subtrees by ID range instead of
// walking pointers. Build one with NewSchema; the constructor owns ID
// assignment, validation, and the layout.
type Schema struct {
	// Name identifies the schema inside a repository; unique per Repository.
	Name string

	root  *Element
	byID  []*Element
	count int
	// depth[id] is element id's number of edges from the root; end[id]
	// is one past the last ID of id's subtree, so the subtree is exactly
	// the ID range [id, end[id]).
	depth []int32
	end   []int32
}

// Validation errors returned by NewSchema.
var (
	ErrNilRoot      = errors.New("xmlschema: schema root is nil")
	ErrEmptyName    = errors.New("xmlschema: element with empty name")
	ErrSharedNode   = errors.New("xmlschema: element reachable twice (tree required)")
	ErrEmptySchema  = errors.New("xmlschema: schema name is empty")
	ErrReusedRoot   = errors.New("xmlschema: element already belongs to another schema")
	ErrUnknownDelim = errors.New("xmlschema: invalid path")
)

// NewSchema validates the tree under root, assigns pre-order IDs and
// parent pointers, builds the flat layout, and returns the Schema. The tree must be a proper
// tree (no node reachable twice), every element must have a non-empty
// name, and root must not already belong to a schema.
func NewSchema(name string, root *Element) (*Schema, error) {
	if name == "" {
		return nil, ErrEmptySchema
	}
	if root == nil {
		return nil, ErrNilRoot
	}
	if root.parent != nil {
		return nil, ErrReusedRoot
	}
	s := &Schema{Name: name, root: root}
	seen := make(map[*Element]bool)
	var build func(e, parent *Element) error
	build = func(e, parent *Element) error {
		if e == nil {
			return ErrNilRoot
		}
		if e.Name == "" {
			return ErrEmptyName
		}
		if seen[e] {
			return fmt.Errorf("%w: %q", ErrSharedNode, e.Name)
		}
		seen[e] = true
		e.parent = parent
		e.id = s.count
		s.count++
		s.byID = append(s.byID, e)
		for _, c := range e.Children {
			if err := build(c, e); err != nil {
				return err
			}
		}
		return nil
	}
	root.parent = nil // allow the root itself
	if err := build(root, nil); err != nil {
		return nil, err
	}
	// The layout in one allocation: a parent's ID precedes its
	// children's, so depths fill forwards and subtree ends backwards.
	layout := make([]int32, 2*s.count)
	s.depth, s.end = layout[:s.count:s.count], layout[s.count:]
	for id, e := range s.byID {
		s.end[id] = int32(id + 1)
		if e.parent != nil {
			s.depth[id] = s.depth[e.parent.id] + 1
		}
	}
	for id := s.count - 1; id > 0; id-- {
		if p := s.byID[id].parent.id; s.end[id] > s.end[p] {
			s.end[p] = s.end[id]
		}
	}
	return s, nil
}

// Root returns the root element.
func (s *Schema) Root() *Element { return s.root }

// Len returns the number of elements in the schema.
func (s *Schema) Len() int { return s.count }

// ByID returns the element with the given schema-local ID, or nil.
func (s *Schema) ByID(id int) *Element {
	if id < 0 || id >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// Elements returns all elements in pre-order (ID order). The returned
// slice is shared; callers must not modify it.
func (s *Schema) Elements() []*Element { return s.byID }

// Depths returns every element's depth (edges from the root), indexed
// by ID. The returned slice is shared; callers must not modify it.
func (s *Schema) Depths() []int32 { return s.depth }

// Ends returns, indexed by ID, one past the last ID of each element's
// subtree: the subtree of id is the ID range [id, Ends()[id]). The
// returned slice is shared; callers must not modify it.
func (s *Schema) Ends() []int32 { return s.end }

// Walk visits all elements in pre-order.
func (s *Schema) Walk(visit func(*Element) bool) { s.root.Walk(visit) }

// FindByName returns all elements whose Name equals name, in ID order.
func (s *Schema) FindByName(name string) []*Element {
	var out []*Element
	for _, e := range s.byID {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// FindByPath resolves a slash path ("library/book/title") starting at
// the root. The first segment must match the root name. It returns nil
// when the path does not resolve.
func (s *Schema) FindByPath(path string) *Element {
	segs := strings.Split(path, "/")
	if len(segs) == 0 || segs[0] != s.root.Name {
		return nil
	}
	cur := s.root
outer:
	for _, seg := range segs[1:] {
		for _, c := range cur.Children {
			if c.Name == seg {
				cur = c
				continue outer
			}
		}
		return nil
	}
	return cur
}

// Names returns the sorted multiset of element names (duplicates kept).
func (s *Schema) Names() []string {
	out := make([]string, 0, s.count)
	for _, e := range s.byID {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the schema (fresh elements, same names,
// types and structure, IDs re-assigned identically because pre-order is
// preserved).
func (s *Schema) Clone() *Schema {
	var cp func(e *Element) *Element
	cp = func(e *Element) *Element {
		ne := &Element{Name: e.Name, Type: e.Type}
		for _, c := range e.Children {
			ne.Children = append(ne.Children, cp(c))
		}
		return ne
	}
	clone, err := NewSchema(s.Name, cp(s.root))
	if err != nil {
		// A valid schema always clones into a valid schema.
		panic("xmlschema: clone of valid schema failed: " + err.Error())
	}
	return clone
}

// CloneAs returns a deep copy of the schema under a different name —
// the building block for snapshot updates that register a variant of an
// existing schema (or re-register one under a fresh name).
func (s *Schema) CloneAs(name string) (*Schema, error) {
	clone := s.Clone()
	if name == s.Name {
		return clone, nil
	}
	return NewSchema(name, clone.root)
}

// String renders the schema as an indented outline, for debugging and
// golden tests.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", s.Name)
	var rec func(e *Element, depth int)
	rec = func(e *Element, depth int) {
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString(e.Name)
		if e.Type != "" {
			b.WriteString(":" + e.Type)
		}
		b.WriteByte('\n')
		for _, c := range e.Children {
			rec(c, depth+1)
		}
	}
	rec(s.root, 0)
	return b.String()
}

// LCA returns the lowest common ancestor of a and b, which must belong
// to the same schema; it returns nil if they do not.
func LCA(a, b *Element) *Element {
	da, db := a.Depth(), b.Depth()
	for da > db {
		a = a.parent
		da--
	}
	for db > da {
		b = b.parent
		db--
	}
	for a != b {
		if a == nil || b == nil {
			return nil
		}
		a, b = a.parent, b.parent
	}
	return a
}

// TreeDistance returns the number of edges on the path between a and b
// through their LCA, or -1 when they are in different trees.
func TreeDistance(a, b *Element) int {
	l := LCA(a, b)
	if l == nil {
		return -1
	}
	return a.Depth() + b.Depth() - 2*l.Depth()
}
