package xmlschema

import (
	"encoding/xml"
	"fmt"
	"io"
)

// The reference decoder: the reflection-based encoding/xml Decode into
// the format's structs that ReadSchema and ReadRepository used before
// they decoded in one streaming pass. It is kept here, and only here,
// as the oracle the streaming decoder is fuzzed against
// (FuzzReadRepository, FuzzReadSchema) and as the baseline of
// BenchmarkReadRepository.

// RefReadRepository and RefReadSchema expose the reference decoder to
// the package's external tests.
var (
	RefReadRepository = refReadRepository
	RefReadSchema     = refReadSchema
)

func fromXML(xe xmlElement) *Element {
	e := &Element{Name: xe.Name, Type: xe.Type}
	for _, c := range xe.Children {
		e.Children = append(e.Children, fromXML(c))
	}
	return e
}

func refReadSchema(r io.Reader) (*Schema, error) {
	var doc xmlSchema
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("xmlschema: decoding schema: %w", err)
	}
	s, err := NewSchema(doc.Name, fromXML(doc.Root))
	if err != nil {
		return nil, fmt.Errorf("xmlschema: invalid schema %q: %w", doc.Name, err)
	}
	return s, nil
}

func refReadRepository(r io.Reader) (*Repository, error) {
	var doc xmlRepository
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("xmlschema: decoding repository: %w", err)
	}
	rep := NewRepository()
	for _, xs := range doc.Schemas {
		s, err := NewSchema(xs.Name, fromXML(xs.Root))
		if err != nil {
			return nil, fmt.Errorf("xmlschema: invalid schema %q in repository: %w", xs.Name, err)
		}
		if err := rep.Add(s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
