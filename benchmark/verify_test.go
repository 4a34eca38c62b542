package main

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/httpserve"
	"repro/internal/matching"
	"repro/match"
)

// served runs spec through a match.Service over a tiny generated
// corpus and returns the wire answers, the reference, and the truth.
func served(t *testing.T, spec string) ([]httpserve.Answer, *matching.AnswerSet, *eval.Truth) {
	t.Helper()
	w, _ := workloadByName("big-repo")
	w = tiny(w)
	c, err := newCorpus(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	tn := c.fleet[0]
	ref, err := referenceSet(tn.Personals()[0], tn.Repo(), w.delta)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() < 2 {
		t.Fatalf("reference has %d answers; the test needs two", ref.Len())
	}
	svc, err := match.NewService(tn.Repo())
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.Matcher(spec)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := svc.Problem(tn.Personals()[0])
	if err != nil {
		t.Fatal(err)
	}
	set, err := m.Match(prob, w.delta)
	if err != nil {
		t.Fatal(err)
	}
	var out []httpserve.Answer
	for _, a := range set.All() {
		out = append(out, httpserve.Answer{Schema: a.Mapping.Schema, Targets: a.Mapping.Targets, Score: a.Score})
	}
	return out, ref, eval.NewTruth(tn.Scenario.TruthKeys(0))
}

func TestVerifierAcceptsServedAnswers(t *testing.T) {
	for _, spec := range allSpecs {
		got, ref, truth := served(t, spec)
		if err := checkAnswers(spec, got, ref); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if !isExhaustive(spec) && truth.Size() > 0 {
			if err := checkBounds(spec, got, ref, truth, 0.3); err != nil {
				t.Errorf("%s bounds: %v", spec, err)
			}
		}
	}
}

func TestVerifierRejectsOneULP(t *testing.T) {
	for _, spec := range []string{"exhaustive", "beam:16"} {
		got, ref, _ := served(t, spec)
		if len(got) == 0 {
			t.Fatalf("%s: no answers", spec)
		}
		bad := append([]httpserve.Answer(nil), got...)
		bad[0].Score = math.Nextafter(bad[0].Score, math.Inf(1))
		if err := checkAnswers(spec, bad, ref); err == nil {
			t.Errorf("%s: a one-ulp score change passed", spec)
		}
		if digest(bad) == digest(got) {
			t.Errorf("%s: digest blind to a one-ulp change", spec)
		}
	}
}

func TestVerifierRejectsExtraAnswer(t *testing.T) {
	got, ref, _ := served(t, "topk:0.035")
	// An answer the exhaustive reference does not hold.
	extra := httpserve.Answer{Schema: ref.All()[0].Mapping.Schema, Targets: []int{-1}, Score: 0}
	if err := checkAnswers("topk:0.035", append(got, extra), ref); err == nil {
		t.Error("an answer outside the reference passed")
	}
	if len(got) > 0 {
		if err := checkAnswers("topk:0.035", append(got, got[0]), ref); err == nil {
			t.Error("a duplicate answer passed")
		}
	}
	// An exhaustive system may not drop one either.
	all, ref, _ := served(t, "exhaustive")
	if err := checkAnswers("exhaustive", all[1:], ref); err == nil {
		t.Error("an exhaustive answer list missing one answer passed")
	}
}
