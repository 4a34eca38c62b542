package similarity

import (
	"strings"
	"testing"
)

func TestSynonymGroups(t *testing.T) {
	d := NewSynonymDict()
	d.AddGroup("zip", "postcode")
	if !d.Synonyms("zip", "postcode") {
		t.Error("zip/postcode should be synonyms")
	}
	if !d.Synonyms("ZIP", "Postcode") {
		t.Error("lookup should be case-insensitive")
	}
	if d.Synonyms("zip", "city") {
		t.Error("zip/city should not be synonyms")
	}
	if !d.Synonyms("unknown", "unknown") {
		t.Error("identical words are always synonyms")
	}
}

func TestSynonymTransitiveMerge(t *testing.T) {
	d := NewSynonymDict()
	d.AddGroup("a", "b")
	d.AddGroup("c", "d")
	if d.Synonyms("a", "c") {
		t.Fatal("premature merge")
	}
	d.AddGroup("b", "c") // merges both classes
	for _, pair := range [][2]string{{"a", "c"}, {"a", "d"}, {"b", "d"}} {
		if !d.Synonyms(pair[0], pair[1]) {
			t.Errorf("%v should be synonyms after merge", pair)
		}
	}
}

func TestSynonymClassOf(t *testing.T) {
	d := NewSynonymDict()
	d.AddGroup("x", "y", "z")
	got := d.ClassOf("y")
	if len(got) != 3 {
		t.Errorf("ClassOf = %v", got)
	}
	if got := d.ClassOf("nope"); len(got) != 1 || got[0] != "nope" {
		t.Errorf("ClassOf unknown = %v", got)
	}
}

func TestSynonymEmptyGroupNoop(t *testing.T) {
	d := NewSynonymDict()
	d.AddGroup()
	if d.Len() != 0 {
		t.Error("empty AddGroup should be a no-op")
	}
}

func TestParseSynonyms(t *testing.T) {
	src := `
# comment line
zip, postcode, zipcode
phone tel   # trailing comment
`
	d, err := ParseSynonyms(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Synonyms("zip", "zipcode") || !d.Synonyms("phone", "tel") {
		t.Error("parsed groups incomplete")
	}
	if d.Synonyms("zip", "tel") {
		t.Error("groups leaked into each other")
	}
}

func TestParseSynonymsSingleWordError(t *testing.T) {
	if _, err := ParseSynonyms(strings.NewReader("lonely\n")); err == nil {
		t.Error("single-word line should error")
	}
}

func TestDefaultSchemaSynonyms(t *testing.T) {
	d := DefaultSchemaSynonyms()
	pairs := [][2]string{
		{"zip", "postcode"},
		{"price", "cost"},
		{"customer", "client"},
		{"qty", "quantity"},
	}
	for _, p := range pairs {
		if !d.Synonyms(p[0], p[1]) {
			t.Errorf("default dict should know %v", p)
		}
	}
	if d.Synonyms("zip", "price") {
		t.Error("unrelated classes merged in default dict")
	}
	if len(d.Words()) < 100 {
		t.Errorf("default dict suspiciously small: %d words", len(d.Words()))
	}
}

func TestSynonymSim(t *testing.T) {
	m := SynonymSim{Dict: DefaultSchemaSynonyms(), Base: EditSim{}}
	if got := m.Similarity("zip", "postcode"); got != 1 {
		t.Errorf("synonym pair = %v, want 1", got)
	}
	// Token-level synonym recognition.
	if got := m.Similarity("customer_name", "client_name"); got != 1 {
		t.Errorf("tokenwise synonym pair = %v, want 1", got)
	}
	// Falls back to base for unrelated words: score strictly below 1.
	if got := m.Similarity("giraffe", "quark"); got >= 0.8 {
		t.Errorf("unrelated pair = %v, want low", got)
	}
}

func TestSynonymSimNilParts(t *testing.T) {
	var m SynonymSim // nil dict and base
	if got := m.Similarity("abc", "abc"); got != 1 {
		t.Errorf("nil-part SynonymSim identical = %v", got)
	}
	m2 := SynonymSim{Dict: NewSynonymDict()}
	if got := m2.Similarity("abcd", "abcx"); got < 0.7 || got > 0.8 {
		t.Errorf("nil base should default to EditSim: got %v", got)
	}
}

func TestCombinedValidation(t *testing.T) {
	if _, err := NewCombined(); err == nil {
		t.Error("no parts should error")
	}
	if _, err := NewCombined(Weighted{Metric: EditSim{}, Weight: -1}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewCombined(Weighted{Metric: EditSim{}, Weight: 0}); err == nil {
		t.Error("all-zero weights should error")
	}
	if _, err := NewCombined(Weighted{Metric: nil, Weight: 1}); err == nil {
		t.Error("nil metric should error")
	}
}

func TestCombinedNormalizesWeights(t *testing.T) {
	c, err := NewCombined(
		Weighted{Metric: EditSim{}, Weight: 2},
		Weighted{Metric: JaroSim{}, Weight: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Weights()
	if w["edit"] != 0.5 || w["jaro"] != 0.5 {
		t.Errorf("weights not normalized: %v", w)
	}
	if got := c.Similarity("same", "same"); got != 1 {
		t.Errorf("combined identical = %v", got)
	}
}

func TestDefaultNameMetric(t *testing.T) {
	m := DefaultNameMetric()
	if got := m.Similarity("zip", "postcode"); got != 1 {
		t.Errorf("default metric should use synonyms: %v", got)
	}
	hi := m.Similarity("customerName", "customer_name")
	if hi < 0.9 {
		t.Errorf("case-convention variants = %v, want high", hi)
	}
	lo := m.Similarity("velocity", "marmalade")
	if lo >= hi {
		t.Errorf("unrelated %v should score below related %v", lo, hi)
	}
}
