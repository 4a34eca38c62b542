package xmlschema

import (
	"strings"
	"testing"
)

// library/book/{title,author}, library/member is the running example.
func buildLibrary(t *testing.T) *Schema {
	t.Helper()
	root := NewElement("library").Add(
		NewElement("book").Add(
			NewTypedElement("title", "string"),
			NewTypedElement("author", "string"),
		),
		NewElement("member"),
	)
	s, err := NewSchema("lib", root)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaAssignsPreorderIDs(t *testing.T) {
	s := buildLibrary(t)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	wantNames := []string{"library", "book", "title", "author", "member"}
	for id, name := range wantNames {
		e := s.ByID(id)
		if e == nil || e.Name != name {
			t.Errorf("ByID(%d) = %v, want %s", id, e, name)
		}
		if e.ID() != id {
			t.Errorf("element %s ID = %d, want %d", name, e.ID(), id)
		}
	}
}

// TestLayoutMatchesTree checks the flat layout against the pointer
// tree: Depths agrees with Element.Depth, and [id, Ends()[id]) is
// exactly id's subtree — on a built schema and on its clone.
func TestLayoutMatchesTree(t *testing.T) {
	lib := buildLibrary(t)
	for _, s := range []*Schema{lib, lib.Clone()} {
		depth, end := s.Depths(), s.Ends()
		if len(depth) != s.Len() || len(end) != s.Len() {
			t.Fatalf("layout lengths %d/%d, want %d", len(depth), len(end), s.Len())
		}
		for _, e := range s.Elements() {
			id := e.ID()
			if int(depth[id]) != e.Depth() {
				t.Errorf("%s: depth %d, want %d", e.Name, depth[id], e.Depth())
			}
			var sub []int
			e.Walk(func(d *Element) bool { sub = append(sub, d.ID()); return true })
			if int(end[id])-id != len(sub) || sub[len(sub)-1] != int(end[id])-1 {
				t.Errorf("%s: subtree range [%d,%d), want IDs %v", e.Name, id, end[id], sub)
			}
		}
	}
	if got := lib.Ends(); got[0] != 5 || got[1] != 4 || got[4] != 5 {
		t.Errorf("library ends = %v, want [5 4 3 4 5]", got)
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", NewElement("r")); err != ErrEmptySchema {
		t.Errorf("empty name err = %v", err)
	}
	if _, err := NewSchema("s", nil); err != ErrNilRoot {
		t.Errorf("nil root err = %v", err)
	}
	if _, err := NewSchema("s", NewElement("r").Add(NewElement(""))); err == nil {
		t.Error("empty element name should be rejected")
	}
	shared := NewElement("shared")
	dag := NewElement("r").Add(shared, NewElement("mid").Add(shared))
	if _, err := NewSchema("s", dag); err == nil {
		t.Error("DAG should be rejected")
	}
}

func TestNewSchemaRejectsReusedRoot(t *testing.T) {
	root := NewElement("r").Add(NewElement("c"))
	if _, err := NewSchema("a", root); err != nil {
		t.Fatal(err)
	}
	// The child now has a parent; using it as another schema's root
	// must fail.
	if _, err := NewSchema("b", root.Children[0]); err != ErrReusedRoot {
		t.Errorf("reused element err = %v, want ErrReusedRoot", err)
	}
}

func TestParentsAndDepth(t *testing.T) {
	s := buildLibrary(t)
	title := s.FindByName("title")[0]
	if title.Depth() != 2 {
		t.Errorf("title depth = %d, want 2", title.Depth())
	}
	if title.Parent().Name != "book" {
		t.Errorf("title parent = %s", title.Parent().Name)
	}
	if s.Root().Parent() != nil {
		t.Error("root parent should be nil")
	}
	anc := title.Ancestors()
	if len(anc) != 2 || anc[0].Name != "book" || anc[1].Name != "library" {
		t.Errorf("ancestors = %v", anc)
	}
	if !title.HasAncestor(s.Root()) {
		t.Error("title should have library as ancestor")
	}
	if title.HasAncestor(title) {
		t.Error("element is not its own ancestor")
	}
	member := s.FindByName("member")[0]
	if title.HasAncestor(member) {
		t.Error("member is not an ancestor of title")
	}
}

func TestPath(t *testing.T) {
	s := buildLibrary(t)
	title := s.FindByName("title")[0]
	if got := title.Path(); got != "library/book/title" {
		t.Errorf("Path = %q", got)
	}
	if got := s.Root().Path(); got != "library" {
		t.Errorf("root Path = %q", got)
	}
}

func TestFindByPath(t *testing.T) {
	s := buildLibrary(t)
	if e := s.FindByPath("library/book/title"); e == nil || e.Name != "title" {
		t.Errorf("FindByPath failed: %v", e)
	}
	if e := s.FindByPath("library"); e != s.Root() {
		t.Error("FindByPath root failed")
	}
	for _, bad := range []string{"", "nosuch", "library/nosuch", "library/book/title/deeper"} {
		if e := s.FindByPath(bad); e != nil {
			t.Errorf("FindByPath(%q) = %v, want nil", bad, e)
		}
	}
}

func TestWalkPreorderAndPrune(t *testing.T) {
	s := buildLibrary(t)
	var order []string
	s.Walk(func(e *Element) bool { order = append(order, e.Name); return true })
	want := "library,book,title,author,member"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("pre-order = %s, want %s", got, want)
	}
	// Prune the book subtree: its children must not be visited.
	order = order[:0]
	s.Walk(func(e *Element) bool {
		order = append(order, e.Name)
		return e.Name != "book"
	})
	if got := strings.Join(order, ","); got != "library,book,member" {
		t.Errorf("pruned order = %s", got)
	}
}

func TestSizeHeight(t *testing.T) {
	s := buildLibrary(t)
	if s.Root().Size() != 5 {
		t.Errorf("Size = %d", s.Root().Size())
	}
	if s.Root().Height() != 2 {
		t.Errorf("Height = %d", s.Root().Height())
	}
	leaf := s.FindByName("member")[0]
	if leaf.Height() != 0 || leaf.Size() != 1 || !leaf.IsLeaf() {
		t.Error("leaf invariants violated")
	}
}

func TestFindByName(t *testing.T) {
	root := NewElement("r").Add(NewElement("x"), NewElement("y").Add(NewElement("x")))
	s, err := NewSchema("dup", root)
	if err != nil {
		t.Fatal(err)
	}
	xs := s.FindByName("x")
	if len(xs) != 2 {
		t.Fatalf("FindByName = %d matches, want 2", len(xs))
	}
	if xs[0].ID() > xs[1].ID() {
		t.Error("FindByName should return ID order")
	}
	if got := s.FindByName("zzz"); got != nil {
		t.Errorf("missing name = %v", got)
	}
}

func TestClone(t *testing.T) {
	s := buildLibrary(t)
	c := s.Clone()
	if c.String() != s.String() {
		t.Errorf("clone differs:\n%s\nvs\n%s", c, s)
	}
	// Mutating the clone must not affect the original.
	c.Root().Children[0].Name = "tome"
	if s.Root().Children[0].Name != "book" {
		t.Error("clone shares nodes with original")
	}
	if c.Len() != s.Len() {
		t.Errorf("clone Len = %d", c.Len())
	}
}

func TestNamesSorted(t *testing.T) {
	s := buildLibrary(t)
	names := s.Names()
	if len(names) != 5 {
		t.Fatalf("Names len = %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestLCAAndTreeDistance(t *testing.T) {
	s := buildLibrary(t)
	title := s.FindByName("title")[0]
	author := s.FindByName("author")[0]
	member := s.FindByName("member")[0]
	if l := LCA(title, author); l == nil || l.Name != "book" {
		t.Errorf("LCA(title,author) = %v", l)
	}
	if l := LCA(title, member); l == nil || l.Name != "library" {
		t.Errorf("LCA(title,member) = %v", l)
	}
	if l := LCA(title, title); l != title {
		t.Error("LCA of element with itself should be itself")
	}
	if d := TreeDistance(title, author); d != 2 {
		t.Errorf("dist(title,author) = %d, want 2", d)
	}
	if d := TreeDistance(title, member); d != 3 {
		t.Errorf("dist(title,member) = %d, want 3", d)
	}
	if d := TreeDistance(title, title); d != 0 {
		t.Errorf("dist self = %d", d)
	}
	// Different trees.
	other, _ := NewSchema("o", NewElement("solo"))
	if d := TreeDistance(title, other.Root()); d != -1 {
		t.Errorf("cross-tree distance = %d, want -1", d)
	}
}

func TestSchemaString(t *testing.T) {
	s := buildLibrary(t)
	out := s.String()
	for _, frag := range []string{"schema lib", "library", "title:string", "member"} {
		if !strings.Contains(out, frag) {
			t.Errorf("String missing %q:\n%s", frag, out)
		}
	}
}
