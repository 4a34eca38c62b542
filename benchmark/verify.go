package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/httpserve"
	"repro/internal/matching"
	"repro/internal/xmlschema"
	"repro/match"
)

// referenceSet is the answer set matchd must reproduce, computed on a
// route that shares nothing with the served one: no memo, no index,
// serial exhaustive enumeration.
func referenceSet(personal *xmlschema.Schema, repo *xmlschema.Repository, delta float64) (*matching.AnswerSet, error) {
	cfg := matching.DefaultConfig()
	cfg.Scorer = engine.NewUncached(nil)
	prob, err := matching.NewProblem(personal, repo, cfg)
	if err != nil {
		return nil, err
	}
	return matching.Exhaustive{}.Match(prob, delta)
}

// checkAnswers compares one wire answer list with the reference. An
// exhaustive system must return the reference bit for bit, in order;
// any other system a duplicate-free subset with identical scores —
// the S2 ⊆ S1 contract the paper's bounds rest on.
func checkAnswers(spec string, got []httpserve.Answer, ref *matching.AnswerSet) error {
	sp, err := match.Parse(spec)
	if err != nil {
		return err
	}
	want := ref.All()
	if sp.Exhaustive() {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d answers, reference has %d", spec, len(got), len(want))
		}
		for i, a := range got {
			w := want[i]
			if a.Schema != w.Mapping.Schema || !slices.Equal(a.Targets, w.Mapping.Targets) ||
				math.Float64bits(a.Score) != math.Float64bits(w.Score) {
				return fmt.Errorf("%s: answer %d is %s %v %v, reference %s %v %v",
					spec, i, a.Schema, a.Targets, a.Score, w.Mapping.Schema, w.Mapping.Targets, w.Score)
			}
		}
		return nil
	}
	scores := ref.ScoreMap()
	seen := make(map[string]bool, len(got))
	for _, a := range got {
		k := mappingOf(a).Key()
		if seen[k] {
			return fmt.Errorf("%s: duplicate answer %s", spec, k)
		}
		seen[k] = true
		s, ok := scores[k]
		if !ok {
			return fmt.Errorf("%s: answer %s is not in the exhaustive reference", spec, k)
		}
		if math.Float64bits(s) != math.Float64bits(a.Score) {
			return fmt.Errorf("%s: answer %s scored %v, reference %v", spec, k, a.Score, s)
		}
	}
	return nil
}

// checkBounds checks the paper's guarantee against the planted truth:
// at every service threshold up to delta (matchd's services use the
// default grid), the true precision and recall of a non-exhaustive
// answer set lie inside the incremental bounds computed from the
// exhaustive reference's measured curve.
func checkBounds(spec string, got []httpserve.Answer, ref *matching.AnswerSet, truth *eval.Truth, delta float64) error {
	ts := thresholdsUpTo(eval.Thresholds(0, 0.45, 15), delta)
	answers := make([]matching.Answer, len(got))
	for i, a := range got {
		answers[i] = matching.Answer{Mapping: mappingOf(a), Score: a.Score}
	}
	set := matching.NewAnswerSet(answers)
	b, err := bounds.Incremental(boundsInput(ref, set, truth, ts))
	if err != nil {
		return fmt.Errorf("%s: bounds: %w", spec, err)
	}
	for i, pt := range eval.MeasuredCurve(set, truth, ts) {
		if !b[i].Contains(pt.Precision, pt.Recall) {
			return fmt.Errorf("%s at δ=%.3f: true (P=%.4f, R=%.4f) outside P[%.4f, %.4f] × R[%.4f, %.4f]",
				spec, pt.Delta, pt.Precision, pt.Recall, b[i].WorstP, b[i].BestP, b[i].WorstR, b[i].BestR)
		}
	}
	return nil
}

// thresholdsUpTo returns the prefix of an ascending grid at or below
// delta.
func thresholdsUpTo(grid []float64, delta float64) []float64 {
	var ts []float64
	for _, t := range grid {
		if t <= delta+1e-12 {
			ts = append(ts, t)
		}
	}
	return ts
}

// boundsInput is the bounds computation of a non-exhaustive answer set
// against the exhaustive one at thresholds ts. An empty truth still
// bounds with |H| = 1.
func boundsInput(exh, set *matching.AnswerSet, truth *eval.Truth, ts []float64) bounds.Input {
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = set.CountAt(t)
	}
	return bounds.Input{S1: eval.MeasuredCurve(exh, truth, ts), Sizes2: sizes, HOverride: max(1, truth.Size())}
}

func mappingOf(a httpserve.Answer) matching.Mapping {
	return matching.Mapping{Schema: a.Schema, Targets: a.Targets}
}

// digest fingerprints an answer list (schemas, targets and score bits,
// in order), so every repeat of a verified request can be checked
// against it without keeping its answers.
func digest(as []httpserve.Answer) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, a := range as {
		buf = append(buf[:0], a.Schema...)
		for _, t := range a.Targets {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(t), 10)
		}
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, math.Float64bits(a.Score), 16)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return h.Sum64()
}
