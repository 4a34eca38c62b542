package candindex

import (
	"repro/internal/similarity"
)

// boundFn upper-bounds metric.Similarity(a.Name, b.Name) given the
// gram multiset intersection of the two profiles. Implementations
// must be admissible: boundFn(a, b, I) ≥ Similarity(a.Name, b.Name) for
// every pair, within floating-point noise.
type boundFn func(a, b *profile, inter int) float64

// one is the trivial bounder for metrics the index cannot bound.
func one(*profile, *profile, int) float64 { return 1 }

// compile builds the bounder for a metric tree. nontrivial reports
// whether the result ever returns < 1; a trivial top-level bounder
// disables candidate filtering entirely (the index stays maintainable
// but prunes nothing). dict is the synonym dictionary discovered in the
// tree, if any, so profiles carry the matching class features.
func compile(m similarity.Metric) (fn boundFn, nontrivial bool, dict *similarity.SynonymDict) {
	switch t := m.(type) {
	case similarity.SynonymSim:
		base := t.Base
		if base == nil {
			base = similarity.EditSim{}
		}
		bb, ok, _ := compile(base)
		if !ok {
			// With a trivial base the whole metric is unbounded anyway.
			return one, false, t.Dict
		}
		return synonymBound(t.Dict, bb), true, t.Dict
	case *similarity.Combined:
		parts := t.Parts()
		fns := make([]boundFn, len(parts))
		ws := make([]float64, len(parts))
		any := false
		var d *similarity.SynonymDict
		for i, p := range parts {
			var ok bool
			var pd *similarity.SynonymDict
			fns[i], ok, pd = compile(p.Metric)
			ws[i] = p.Weight
			any = any || ok
			if d == nil {
				d = pd
			}
		}
		if !any {
			return one, false, d
		}
		return func(a, b *profile, inter int) float64 {
			s := 0.0
			for i, f := range fns {
				s += ws[i] * f(a, b, inter)
			}
			if s > 1 {
				return 1
			}
			return s
		}, true, d
	case similarity.QGramSim:
		if t.Q() != gramQ {
			return one, false, nil
		}
		return qgramBound, true, nil
	case similarity.EditSim:
		return editBound, true, nil
	case similarity.OSASim:
		return osaBound, true, nil
	case similarity.JaroSim:
		return jaroBound, true, nil
	case similarity.JaroWinklerSim:
		return jaroWinklerBound, true, nil
	case similarity.JaccardSim:
		return jaccardBound, true, nil
	case similarity.DiceSim:
		return diceBound, true, nil
	case similarity.CosineSim:
		return cosineBound, true, nil
	case similarity.CommonPrefixSim:
		return prefixBound, true, nil
	case similarity.CommonSuffixSim:
		return suffixBound, true, nil
	case similarity.LCSSim:
		return lcsBound, true, nil
	default:
		// MongeElkan, SymMongeElkan, SoundexSim, MetricFunc, and anything
		// unknown: no sound cheap bound, so never prune on their account.
		return one, false, nil
	}
}

// qgramBound is exact: QGramSim(q=3) is the Dice coefficient
// 2I/(|Ga|+|Gb|) over padded gram multisets, and interned gram IDs make
// I the true intersection size.
func qgramBound(a, b *profile, inter int) float64 {
	total := a.GramTotal() + b.GramTotal()
	if a.RuneLen() == 0 && b.RuneLen() == 0 {
		return 1
	}
	if total == 0 {
		return 0
	}
	s := 2 * float64(inter) / float64(total)
	if s > 1 {
		return 1
	}
	return s
}

// editBound applies q-gram count filtering: one edit destroys at most q
// padded grams, so lev(a, b) ≥ (maxG − I)/q and
// EditSim = 1 − lev/max(|a|,|b|) ≤ 1 − (maxG − I)/(q·max(|a|,|b|)).
// Grams are lower-cased; lowering never increases edit distance, so the
// derived lev floor also holds for the raw strings the metric sees.
func editBound(a, b *profile, inter int) float64 {
	return countFilterBound(a, b, inter, gramQ)
}

// osaBound is editBound with divisor q+1: a transposition touches at
// most q+1 padded grams.
func osaBound(a, b *profile, inter int) float64 {
	return countFilterBound(a, b, inter, gramQ+1)
}

func countFilterBound(a, b *profile, inter, perOp int) float64 {
	mx := max(a.RuneLen(), b.RuneLen())
	if mx == 0 {
		return 1
	}
	maxG := max(a.GramTotal(), b.GramTotal())
	destroyed := float64(maxG - inter)
	if destroyed <= 0 {
		return 1
	}
	s := 1 - destroyed/(float64(perOp)*float64(mx))
	if s < 0 {
		return 0
	}
	return s
}

// jaroMatchesUB bounds the Jaro match count by the multiset
// intersection of the 32-bucket lower-cased rune histograms. Bucket
// folding and lower-casing only merge classes, which inflates the
// intersection; saturated histograms fall back to min(|a|, |b|).
func jaroMatchesUB(a, b *profile) int {
	if a.BigChar || b.BigChar {
		return min(a.RuneLen(), b.RuneLen())
	}
	c := 0
	for i := 0; i < 32; i++ {
		c += int(min(a.CharCnt[i], b.CharCnt[i]))
	}
	return min(c, a.RuneLen(), b.RuneLen())
}

// jaroBound: with m matches and t transpositions,
// jaro = (m/|a| + m/|b| + (m−t)/m)/3 ≤ (c/|a| + c/|b| + 1)/3 for any
// c ≥ m.
func jaroBound(a, b *profile, _ int) float64 {
	la, lb := a.RuneLen(), b.RuneLen()
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	c := jaroMatchesUB(a, b)
	if c == 0 {
		return 0
	}
	s := (float64(c)/float64(la) + float64(c)/float64(lb) + 1) / 3
	if s > 1 {
		return 1
	}
	return s
}

// jaroWinklerBound boosts jaroBound with the common-prefix length of
// the stored lower-cased prefixes, capped at 4. The metric compares raw
// runes, and a lower-cased common prefix is at least as long, while
// jw = j + 0.1·ℓ·(1−j) is increasing in both j and ℓ.
func jaroWinklerBound(a, b *profile, inter int) float64 {
	j := jaroBound(a, b, inter)
	l := 0
	k := min(len(a.Prefix), len(b.Prefix), 4)
	for l < k && a.Prefix[l] == b.Prefix[l] {
		l++
	}
	s := j + 0.1*float64(l)*(1-j)
	if s > 1 {
		return 1
	}
	return s
}

// jaccardBound is exact: token sets are interned, so the distinct-id
// intersection equals the metric's lower-cased token-set intersection.
func jaccardBound(a, b *profile, _ int) float64 {
	if len(a.TokIDs) == 0 && len(b.TokIDs) == 0 {
		return 1
	}
	in := interCount(a.TokIDs, b.TokIDs)
	un := len(a.TokIDs) + len(b.TokIDs) - in
	if un == 0 {
		return 0
	}
	return float64(in) / float64(un)
}

// diceBound is exact, like jaccardBound.
func diceBound(a, b *profile, _ int) float64 {
	total := len(a.TokIDs) + len(b.TokIDs)
	if total == 0 {
		return 1
	}
	return 2 * float64(interCount(a.TokIDs, b.TokIDs)) / float64(total)
}

// cosineBound: zero token overlap forces 0 (1 when both are empty);
// any overlap is bounded by the trivial 1.
func cosineBound(a, b *profile, _ int) float64 {
	if len(a.TokIDs) == 0 && len(b.TokIDs) == 0 {
		return 1
	}
	if len(a.TokIDs) == 0 || len(b.TokIDs) == 0 {
		return 0
	}
	if interCount(a.TokIDs, b.TokIDs) == 0 {
		return 0
	}
	return 1
}

// prefixBound is exact whenever the stored 8-rune windows witness the
// divergence point; beyond them it degrades to 1.
func prefixBound(a, b *profile, _ int) float64 {
	return affixBound(a.Prefix, b.Prefix, a.RuneLen(), b.RuneLen())
}

// suffixBound mirrors prefixBound on the reversed suffix windows.
func suffixBound(a, b *profile, _ int) float64 {
	return affixBound(a.Suffix, b.Suffix, a.RuneLen(), b.RuneLen())
}

func affixBound(pa, pb []rune, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	n := min(la, lb)
	if n == 0 {
		return 0
	}
	k := min(len(pa), len(pb))
	i := 0
	for i < k && pa[i] == pb[i] {
		i++
	}
	if i < k {
		// Divergence inside both windows: the common-affix length is
		// exactly i.
		return float64(i) / float64(n)
	}
	return 1
}

// lcsBound: a common substring of length L contributes L−q+1 shared
// padded grams (with multiplicity), so L ≤ I + q − 1 and
// LCSSim = L/min(|a|,|b|) ≤ (I + q − 1)/min(|a|,|b|).
func lcsBound(a, b *profile, inter int) float64 {
	if a.RuneLen() == 0 && b.RuneLen() == 0 {
		return 1
	}
	mn := min(a.RuneLen(), b.RuneLen())
	if mn == 0 {
		return 0
	}
	s := float64(inter+gramQ-1) / float64(mn)
	if s > 1 {
		return 1
	}
	return s
}

// synonymBound mirrors SynonymSim.Similarity: 1 for whole-string
// synonyms, otherwise the max of the base bound and the token-alignment
// bound, where synonym token pairs — the metric's exact test, NormID or
// class equality — count as exact matches.
func synonymBound(dict *similarity.SynonymDict, base boundFn) boundFn {
	if dict == nil {
		return base
	}
	return func(a, b *profile, inter int) float64 {
		if a.NormID == b.NormID {
			return 1
		}
		if a.Class >= 0 && a.Class == b.Class {
			return 1
		}
		s := base(a, b, inter)
		if len(a.Toks) > 0 && len(b.Toks) > 0 && s < 1 {
			sum := 0.0
			for _, x := range a.Toks {
				best := 0.0
				for _, y := range b.Toks {
					var sc float64
					if x.NormID == y.NormID || (x.Class >= 0 && x.Class == y.Class) {
						sc = 1
					} else {
						sc = base(x, y, similarity.MergeCount(x.Grams, y.Grams))
					}
					if sc > best {
						best = sc
						if best == 1 {
							break
						}
					}
				}
				sum += best
			}
			if ts := sum / float64(len(a.Toks)); ts > s {
				s = ts
			}
		}
		return s
	}
}
