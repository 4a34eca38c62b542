package xmlschema

import (
	"bytes"
	"strings"
	"testing"
)

// xmlQuirks are documents whose reading is not obvious from the format
// alone; the streaming decoder must read each exactly as the reflection
// decoder did. The want column is the outline (Schema.String) of every
// schema read, or "error".
var xmlQuirks = []struct {
	name, doc, want string
}{
	{"two roots merge",
		`<repository><schema name="s"><element name="a" type="t"><element name="x"/></element><element name="b"><element name="y"/></element></schema></repository>`,
		"schema s\n  b:t\n    x\n    y\n"},
	{"nameless second root keeps the first name",
		`<repository><schema name="s"><element name="a"/><element type="u"><element name="y"/></element></schema></repository>`,
		"schema s\n  a:u\n    y\n"},
	{"wrapper skipped with its subtree",
		`<repository><schema name="s"><element name="a"><group><element name="lost"/></group><element name="kept"/></element></schema><wrap><schema name="gone"><element name="g"/></schema></wrap></repository>`,
		"schema s\n  a\n    kept\n"},
	{"content after the root ignored",
		`<repository><schema name="s"><element name="a"/></schema></repository><<<not xml`,
		"schema s\n  a\n"},
	{"namespace prefixes",
		`<r:repository xmlns:r="urn:r" xmlns:q="urn:q"><r:schema q:name="s"><q:element name="a" r:type="t"><element xmlns:name="b"/></q:element></r:schema></r:repository>`,
		"schema s\n  a:t\n    b\n"},
	{"duplicated attribute",
		`<repository><schema name="s" name="t"><element name="a" type="x" type="y"/></schema></repository>`,
		"schema t\n  a:y\n"},
	{"text, comments and instructions ignored",
		`<?xml version="1.0"?><!-- c --><repository>text<schema name="s"><!-- c --><element name="a">x<?pi?></element></schema></repository>`,
		"schema s\n  a\n"},
	{"schema without a root", `<repository><schema name="s"></schema></repository>`, "error"},
	{"unnamed schema", `<repository><schema><element name="a"/></schema></repository>`, "error"},
	{"wrong document element", `<schema name="s"><element name="a"/></schema>`, "error"},
	{"truncated", `<repository><schema name="s"><element name="a">`, "error"},
	{"unbalanced", `<repository><schema name="s"><element name="a"></schema></element></repository>`, "error"},
	{"empty", ``, "error"},
}

// readOutline reads doc with read and renders every schema's outline,
// or "error".
func readOutline(doc string, read func(*bytes.Reader) (*Repository, error)) string {
	rep, err := read(bytes.NewReader([]byte(doc)))
	if err != nil {
		return "error"
	}
	var b strings.Builder
	for _, s := range rep.Schemas() {
		b.WriteString(s.String())
	}
	return b.String()
}

func TestReadRepositoryQuirks(t *testing.T) {
	for _, q := range xmlQuirks {
		t.Run(q.name, func(t *testing.T) {
			got := readOutline(q.doc, func(r *bytes.Reader) (*Repository, error) { return ReadRepository(r) })
			ref := readOutline(q.doc, func(r *bytes.Reader) (*Repository, error) { return refReadRepository(r) })
			if got != q.want || ref != q.want {
				t.Fatalf("streaming read %q, reference read %q, want %q", got, ref, q.want)
			}
		})
	}
}

// nested returns a document whose schema nests depth <element>s below
// the root, in the repository wrapper when wrap is set.
func nested(depth int, wrap bool) []byte {
	var b bytes.Buffer
	if wrap {
		b.WriteString("<repository>")
	}
	b.WriteString(`<schema name="s">`)
	for i := 0; i <= depth; i++ {
		b.WriteString(`<element name="e">`)
	}
	for i := 0; i <= depth; i++ {
		b.WriteString(`</element>`)
	}
	b.WriteString(`</schema>`)
	if wrap {
		b.WriteString("</repository>")
	}
	return b.Bytes()
}

// TestReadDepthLimit pins the nesting depth at which both decoders
// start failing: encoding/xml's unmarshal limit, reached two elements
// sooner inside a repository.
func TestReadDepthLimit(t *testing.T) {
	for _, tc := range []struct {
		wrap bool
		ok   int
	}{{true, 4998}, {false, 4999}} {
		for _, depth := range []int{tc.ok, tc.ok + 1} {
			doc := nested(depth, tc.wrap)
			var gotErr, refErr error
			if tc.wrap {
				_, gotErr = ReadRepository(bytes.NewReader(doc))
				_, refErr = refReadRepository(bytes.NewReader(doc))
			} else {
				_, gotErr = ReadSchema(bytes.NewReader(doc))
				_, refErr = refReadSchema(bytes.NewReader(doc))
			}
			if wantErr := depth > tc.ok; (gotErr != nil) != wantErr || (refErr != nil) != wantErr {
				t.Errorf("repository=%v depth %d: streaming err %v, reference err %v, want error %v",
					tc.wrap, depth, gotErr, refErr, wantErr)
			}
		}
	}
}

// xmlSeeds returns the fuzz seeds: writer output for a small
// repository and each of its schemas, their truncations, and the quirk
// documents, each also unwrapped (a schema document) and with its tags
// unbalanced.
func xmlSeeds(t testing.TB) []string {
	rep := NewRepository()
	for _, s := range []*Schema{
		seedSchema(t, "library", NewElement("library").Add(
			NewElement("book").Add(NewTypedElement("title", "string"), NewTypedElement("isbn", "string")),
			NewTypedElement("name", "string"))),
		seedSchema(t, "orders", NewElement("order").Add(NewTypedElement("id", "int"))),
	} {
		if err := rep.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	var docs []string
	var buf bytes.Buffer
	if err := WriteRepository(&buf, rep); err != nil {
		t.Fatal(err)
	}
	docs = append(docs, buf.String())
	for _, s := range rep.Schemas() {
		buf.Reset()
		if err := WriteSchema(&buf, s); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	for _, d := range docs[:len(docs):len(docs)] {
		docs = append(docs, d[:len(d)/2], d[:len(d)-1])
	}
	for _, q := range xmlQuirks {
		docs = append(docs, q.doc,
			strings.TrimSuffix(strings.TrimPrefix(q.doc, "<repository>"), "</repository>"),
			strings.Replace(q.doc, "</element>", "", 1))
	}
	return docs
}

func seedSchema(t testing.TB, name string, root *Element) *Schema {
	t.Helper()
	s, err := NewSchema(name, root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameSchema reports whether a and b have the same name and tree.
func sameSchema(a, b *Schema) bool {
	return a.Name == b.Name && a.Len() == b.Len() && Equal(a.Root(), b.Root())
}

// FuzzReadRepository: the streaming decoder reads every input exactly
// as the reflection reference does — the same schemas in the same
// order, or an error from both.
func FuzzReadRepository(f *testing.F) {
	for _, d := range xmlSeeds(f) {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := ReadRepository(bytes.NewReader(doc))
		want, wantErr := refReadRepository(bytes.NewReader(doc))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("streaming err %v, reference err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		gs, ws := got.Schemas(), want.Schemas()
		if len(gs) != len(ws) {
			t.Fatalf("streaming read %d schemas, reference %d", len(gs), len(ws))
		}
		for i := range gs {
			if !sameSchema(gs[i], ws[i]) {
				t.Fatalf("schema %d: streaming\n%s\nreference\n%s", i, gs[i], ws[i])
			}
		}
	})
}

// FuzzReadSchema is FuzzReadRepository for standalone schema
// documents.
func FuzzReadSchema(f *testing.F) {
	for _, d := range xmlSeeds(f) {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := ReadSchema(bytes.NewReader(doc))
		want, wantErr := refReadSchema(bytes.NewReader(doc))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("streaming err %v, reference err %v", gotErr, wantErr)
		}
		if gotErr == nil && !sameSchema(got, want) {
			t.Fatalf("streaming\n%s\nreference\n%s", got, want)
		}
	})
}
