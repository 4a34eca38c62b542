package similarity

import (
	"fmt"
	"sort"
	"strings"
)

// Weighted is one component of a Combined metric.
type Weighted struct {
	Metric Metric
	Weight float64
}

// Combined is a convex combination of metrics — the usual shape of the
// lexical part of a schema matcher's objective function (COMA-style
// combination of matchers). Weights are normalized on construction.
type Combined struct {
	parts []Weighted
	label string
}

// NewCombined builds a Combined metric. It returns an error when no
// parts are given, a weight is negative, or all weights are zero.
func NewCombined(parts ...Weighted) (*Combined, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("similarity: combined metric needs at least one part")
	}
	total := 0.0
	for _, p := range parts {
		if p.Metric == nil {
			return nil, fmt.Errorf("similarity: combined metric part has nil metric")
		}
		if p.Weight < 0 {
			return nil, fmt.Errorf("similarity: negative weight %v for %s", p.Weight, p.Metric.Name())
		}
		total += p.Weight
	}
	if total == 0 {
		return nil, fmt.Errorf("similarity: all weights zero")
	}
	norm := make([]Weighted, len(parts))
	names := make([]string, len(parts))
	for i, p := range parts {
		norm[i] = Weighted{Metric: p.Metric, Weight: p.Weight / total}
		names[i] = fmt.Sprintf("%s:%.2f", p.Metric.Name(), p.Weight/total)
	}
	return &Combined{parts: norm, label: "combined(" + strings.Join(names, ",") + ")"}, nil
}

// Similarity implements Metric as the weighted mean of the parts.
func (c *Combined) Similarity(a, b string) float64 {
	s := 0.0
	for _, p := range c.parts {
		s += p.Weight * p.Metric.Similarity(a, b)
	}
	return clamp01(s)
}

// Name implements Metric.
func (c *Combined) Name() string { return c.label }

// Parts returns a copy of the normalized components in combination
// order. Consumers that need the exact convex structure (for example
// the candidate index deriving per-part similarity upper bounds)
// read it from here instead of re-parsing the label.
func (c *Combined) Parts() []Weighted {
	out := make([]Weighted, len(c.parts))
	copy(out, c.parts)
	return out
}

// Weights returns a copy of the normalized component weights keyed by
// metric name, for reporting.
func (c *Combined) Weights() map[string]float64 {
	out := make(map[string]float64, len(c.parts))
	for _, p := range c.parts {
		out[p.Metric.Name()] = p.Weight
	}
	return out
}

// DefaultNameMetric returns the metric used by the matchers for element
// names unless configured otherwise: a synonym-aware blend of
// Jaro-Winkler, trigram overlap, token Jaccard and common affixes. The
// blend is the standard "hybrid matcher" recipe from the schema
// matching literature the paper builds on; the affix components catch
// abbreviations and compounds ("addr"/"address", "name"/"fullname")
// that sit outside the Jaro match window.
func DefaultNameMetric() Metric {
	tri, err := NewQGramSim(3)
	if err != nil {
		panic("similarity: impossible: " + err.Error()) // q=3 is valid by construction
	}
	base, err := NewCombined(
		Weighted{Metric: JaroWinklerSim{}, Weight: 0.3},
		Weighted{Metric: tri, Weight: 0.25},
		Weighted{Metric: JaccardSim{}, Weight: 0.15},
		Weighted{Metric: CommonPrefixSim{}, Weight: 0.15},
		Weighted{Metric: CommonSuffixSim{}, Weight: 0.15},
	)
	if err != nil {
		panic("similarity: impossible: " + err.Error())
	}
	return SynonymSim{Dict: DefaultSchemaSynonyms(), Base: base}
}

// Registry maps metric names to constructors so CLIs can select metrics
// by flag value.
var registry = map[string]func() Metric{
	"edit":         func() Metric { return EditSim{} },
	"osa":          func() Metric { return OSASim{} },
	"jaro":         func() Metric { return JaroSim{} },
	"jaro-winkler": func() Metric { return JaroWinklerSim{} },
	"jaccard":      func() Metric { return JaccardSim{} },
	"dice":         func() Metric { return DiceSim{} },
	"cosine":       func() Metric { return CosineSim{} },
	"lcs":          func() Metric { return LCSSim{} },
	"prefix":       func() Metric { return CommonPrefixSim{} },
	"suffix":       func() Metric { return CommonSuffixSim{} },
	"monge-elkan":  func() Metric { return MongeElkan{Inner: JaroWinklerSim{}} },
	"soundex":      func() Metric { return SoundexSim{} },
	"trigram": func() Metric {
		m, _ := NewQGramSim(3)
		return m
	},
	"bigram": func() Metric {
		m, _ := NewQGramSim(2)
		return m
	},
	"default": DefaultNameMetric,
}

// ByName returns the metric registered under name, or an error listing
// the known names.
func ByName(name string) (Metric, error) {
	if f, ok := registry[strings.ToLower(name)]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("similarity: unknown metric %q (known: %s)", name, strings.Join(MetricNames(), ", "))
}

// MetricNames lists the registered metric names, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
