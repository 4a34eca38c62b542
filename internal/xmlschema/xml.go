package xmlschema

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
)

// The on-disk corpus format is plain XML:
//
//	<schema name="library">
//	  <element name="library">
//	    <element name="book">
//	      <element name="title" type="string"/>
//	    </element>
//	  </element>
//	</schema>
//
// A repository file is a sequence of <schema> documents wrapped in
// <repository>. The structs below shape the encoder's output; reading
// goes through treeDecoder.

type xmlElement struct {
	XMLName  xml.Name     `xml:"element"`
	Name     string       `xml:"name,attr"`
	Type     string       `xml:"type,attr,omitempty"`
	Children []xmlElement `xml:"element"`
}

type xmlSchema struct {
	XMLName xml.Name   `xml:"schema"`
	Name    string     `xml:"name,attr"`
	Root    xmlElement `xml:"element"`
}

type xmlRepository struct {
	XMLName xml.Name    `xml:"repository"`
	Schemas []xmlSchema `xml:"schema"`
}

func toXML(e *Element) xmlElement {
	xe := xmlElement{Name: e.Name, Type: e.Type}
	for _, c := range e.Children {
		xe.Children = append(xe.Children, toXML(c))
	}
	return xe
}

// WriteSchema serializes s as XML to w.
func WriteSchema(w io.Writer, s *Schema) error {
	doc := xmlSchema{Name: s.Name, Root: toXML(s.root)}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmlschema: encoding schema %s: %w", s.Name, err)
	}
	return nil
}

// WriteRepository serializes all schemas of rep to w as one XML
// document.
func WriteRepository(w io.Writer, rep *Repository) error {
	doc := xmlRepository{}
	for _, s := range rep.Schemas() {
		doc.Schemas = append(doc.Schemas, xmlSchema{Name: s.Name, Root: toXML(s.root)})
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmlschema: encoding repository: %w", err)
	}
	return nil
}

// ReadSchema parses one schema document from r.
func ReadSchema(r io.Reader) (*Schema, error) {
	td := treeDecoder{d: xml.NewDecoder(r)}
	name, root, err := td.document()
	if err != nil {
		return nil, fmt.Errorf("xmlschema: decoding schema: %w", err)
	}
	s, err := NewSchema(name, root)
	if err != nil {
		return nil, fmt.Errorf("xmlschema: invalid schema %q: %w", name, err)
	}
	return s, nil
}

// ReadRepository parses a repository document from r.
func ReadRepository(r io.Reader) (*Repository, error) {
	td := treeDecoder{d: xml.NewDecoder(r)}
	if err := td.repository(); err != nil {
		return nil, fmt.Errorf("xmlschema: decoding repository: %w", err)
	}
	rep := NewRepository()
	for i, name := range td.names {
		s, err := NewSchema(name, td.roots[i])
		if err != nil {
			return nil, fmt.Errorf("xmlschema: invalid schema %q in repository: %w", name, err)
		}
		if err := rep.Add(s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// treeDecoder reads the corpus format in one pass over the token
// stream, building Element trees directly. encoding/xml's Token keeps
// tag balance, namespaces and character checks; on top of it the
// decoder gives exactly the result the format's structs got from
// reflection decoding:
//
//   - only local names count: namespace prefixes on tags and
//     attributes are accepted, and a repeated attribute keeps its last
//     value;
//   - an element of any other name is skipped with its whole subtree,
//     <element>s inside it included;
//   - several <element> roots of one <schema> merge into one root:
//     each root's attributes overwrite the ones before, and the
//     children are appended in document order;
//   - decoding ends at the document element's end tag; what follows
//     is not read;
//   - nesting deeper than encoding/xml's unmarshal depth limit fails
//     the same way (see maxDecodeDepth).
type treeDecoder struct {
	d *xml.Decoder
	// names and roots are the schemas of a repository document, in
	// document order; they are validated once the document has
	// decoded, so a syntax error anywhere wins over an invalid schema.
	names []string
	roots []*Element
	// stack is element's path of open elements, kept between schemas
	// to reuse its capacity.
	stack []*Element
}

// maxDecodeDepth is encoding/xml's unmarshal recursion limit. The
// reflection decoder held a repository at depth 0, each of its schemas
// at depth 2 (slice, then struct) and a standalone schema at 0; a
// schema's root one level below the schema, and every nested element
// two below its parent (the parent's Children slice, then its own
// struct). treeDecoder counts the same levels so that the same
// documents fail.
const maxDecodeDepth = 10000

var errDecodeDepth = errors.New("exceeded max depth")

// start reads up to the document element and checks its local name.
func (td *treeDecoder) start(want string) (xml.StartElement, error) {
	for {
		tok, err := td.d.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if t, ok := tok.(xml.StartElement); ok {
			if t.Name.Local != want {
				return t, xml.UnmarshalError("expected element type <" + want + "> but have <" + t.Name.Local + ">")
			}
			return t, nil
		}
	}
}

// repository decodes a <repository> document into td.names and
// td.roots.
func (td *treeDecoder) repository() error {
	if _, err := td.start("repository"); err != nil {
		return err
	}
	for {
		tok, err := td.d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "schema" {
				if err := td.d.Skip(); err != nil {
					return err
				}
				continue
			}
			name, root, err := td.schema(t, 2)
			if err != nil {
				return err
			}
			td.names = append(td.names, name)
			td.roots = append(td.roots, root)
		case xml.EndElement:
			return nil
		}
	}
}

// document decodes a standalone <schema> document.
func (td *treeDecoder) document() (string, *Element, error) {
	t, err := td.start("schema")
	if err != nil {
		return "", nil, err
	}
	return td.schema(t, 0)
}

// schema decodes the body of the <schema> element opened by start, at
// the given unmarshal depth. A schema without an <element> gets an
// unnamed root, which NewSchema rejects.
func (td *treeDecoder) schema(start xml.StartElement, depth int) (string, *Element, error) {
	var name string
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			name = a.Value
		}
	}
	root := &Element{}
	for {
		tok, err := td.d.Token()
		if err != nil {
			return "", nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "element" {
				err = td.d.Skip()
			} else {
				err = td.element(t, root, depth+1)
			}
			if err != nil {
				return "", nil, err
			}
		case xml.EndElement:
			return name, root, nil
		}
	}
}

// element decodes the <element> opened by start into e (whose
// attributes it overwrites and whose children it extends), e sitting
// at the given unmarshal depth.
func (td *treeDecoder) element(start xml.StartElement, e *Element, depth int) error {
	setAttrs(e, start)
	stack := append(td.stack[:0], e)
	for len(stack) > 0 {
		tok, err := td.d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "element" {
				if err := td.d.Skip(); err != nil {
					return err
				}
				continue
			}
			// The child sits two levels (its parent's Children slice,
			// then its own struct) below its parent.
			if depth+2*len(stack) >= maxDecodeDepth {
				return errDecodeDepth
			}
			c := &Element{}
			setAttrs(c, t)
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, c)
			stack = append(stack, c)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		}
	}
	td.stack = stack
	return nil
}

// setAttrs copies the name and type attributes of start onto e.
func setAttrs(e *Element, start xml.StartElement) {
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "name":
			e.Name = a.Value
		case "type":
			e.Type = a.Value
		}
	}
}
