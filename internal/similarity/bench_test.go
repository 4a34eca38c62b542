package similarity

import (
	"fmt"
	"strings"
	"testing"
)

var benchPairs = [][2]string{
	{"customerName", "client_name"},
	{"zipcode", "postal_code"},
	{"orderLineItemQuantity", "order_item_qty"},
	{"x", "completely_different_thing"},
}

func benchMetricPairs(b *testing.B, m Metric) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		_ = m.Similarity(p[0], p[1])
	}
}

func BenchmarkLevenshtein(b *testing.B)   { benchMetricPairs(b, EditSim{}) }
func BenchmarkOSA(b *testing.B)           { benchMetricPairs(b, OSASim{}) }
func BenchmarkJaro(b *testing.B)          { benchMetricPairs(b, JaroSim{}) }
func BenchmarkJaroWinklerB(b *testing.B)  { benchMetricPairs(b, JaroWinklerSim{}) }
func BenchmarkTrigram(b *testing.B)       { g, _ := NewQGramSim(3); benchMetricPairs(b, g) }
func BenchmarkJaccard(b *testing.B)       { benchMetricPairs(b, JaccardSim{}) }
func BenchmarkCosine(b *testing.B)        { benchMetricPairs(b, CosineSim{}) }
func BenchmarkMongeElkanB(b *testing.B)   { benchMetricPairs(b, MongeElkan{Inner: JaroWinklerSim{}}) }
func BenchmarkLCSB(b *testing.B)          { benchMetricPairs(b, LCSSim{}) }
func BenchmarkDefaultMetric(b *testing.B) { benchMetricPairs(b, DefaultNameMetric()) }

// BenchmarkEditScaling shows the quadratic growth of edit distance
// with name length.
func BenchmarkEditScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		a := strings.Repeat("ab", n/2)
		c := strings.Repeat("ba", n/2)
		b.Run(fmt.Sprintf("len%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Levenshtein(a, c)
			}
		})
	}
}

func BenchmarkTokenize(b *testing.B) {
	names := []string{"XMLSchemaElementID", "customer_order_line_item", "simpleword"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(names[i%len(names)])
	}
}

func BenchmarkSynonymLookup(b *testing.B) {
	d := DefaultSchemaSynonyms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Synonyms("zip", "postcode")
	}
}
