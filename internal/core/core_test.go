package core

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/synth"
)

// testPipeline builds a small but realistic pipeline shared by the
// tests in this file.
func testPipeline(t *testing.T, seed uint64) *Pipeline {
	t.Helper()
	scfg := synth.DefaultConfig(seed)
	scfg.NumSchemas = 60
	pl, err := NewPipeline(Options{Synth: scfg, Thresholds: eval.Thresholds(0, 0.45, 9)})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestNewPipelineDefaults(t *testing.T) {
	pl := testPipeline(t, 1)
	if pl.Truth.Size() == 0 {
		t.Fatal("no planted truth")
	}
	if pl.S1.Len() == 0 {
		t.Fatal("exhaustive system found nothing")
	}
	if len(pl.S1Curve) != len(pl.Thresholds) {
		t.Fatalf("curve has %d points for %d thresholds", len(pl.S1Curve), len(pl.Thresholds))
	}
	// The curve must reach useful recall by the top threshold.
	last := pl.S1Curve[len(pl.S1Curve)-1]
	if last.Recall < 0.3 {
		t.Errorf("S1 recall at max δ = %v; scenario too hard for the experiments", last.Recall)
	}
	if last.Recall > 0 && last.Precision >= 0.999 {
		t.Errorf("S1 precision never drops (%v); scenario has no distractors", last.Precision)
	}
}

func TestRunImprovementAndValidateBounds(t *testing.T) {
	pl := testPipeline(t, 2)
	one, two, err := pl.StandardImprovements()
	if err != nil {
		t.Fatal(err)
	}
	runOne, err := pl.RunImprovement(one)
	if err != nil {
		t.Fatal(err)
	}
	runTwo, err := pl.RunImprovement(two)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []*Run{runOne, runTwo} {
		if err := run.ValidateBounds(); err != nil {
			t.Errorf("bounds violated: %v", err)
		}
		if len(run.Sizes2) != len(pl.Thresholds) || len(run.Ratios) != len(pl.Thresholds) {
			t.Errorf("%s: wrong series lengths", run.Name)
		}
		for i, r := range run.Ratios {
			if r < 0 || r > 1+1e-9 {
				t.Errorf("%s: ratio[%d] = %v out of range", run.Name, i, r)
			}
		}
		// The improvement must actually prune somewhere.
		pruned := false
		for i := range run.Sizes2 {
			if run.Sizes2[i] < pl.S1Curve[i].Answers {
				pruned = true
			}
		}
		if !pruned {
			t.Errorf("%s retained everything; not a useful experiment subject", run.Name)
		}
	}
}

func TestBeamImprovementRun(t *testing.T) {
	pl := testPipeline(t, 3)
	bm, err := pl.BeamImprovement(8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := pl.RunImprovement(bm)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.ValidateBounds(); err != nil {
		t.Errorf("beam bounds violated: %v", err)
	}
}

func TestFigure5And6(t *testing.T) {
	pl := testPipeline(t, 4)
	f5 := Figure5(pl)
	if len(f5.Rows) != len(pl.Thresholds) {
		t.Errorf("fig5 rows = %d", len(f5.Rows))
	}
	out := f5.Render()
	for _, frag := range []string{"fig5", "precision", "recall"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig5 render missing %q", frag)
		}
	}
	f6 := Figure6(pl)
	if len(f6.Rows) != 11 {
		t.Errorf("fig6 rows = %d, want 11", len(f6.Rows))
	}
}

func TestFigure8(t *testing.T) {
	f8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	out := f8.Render()
	// The table must contain the three canonical values.
	for _, frag := range []string{"0.2188", "0.0625", "0.1458"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig8 missing value %s in:\n%s", frag, out)
		}
	}
}

func TestFigure9(t *testing.T) {
	pl := testPipeline(t, 5)
	f9, err := Figure9(pl, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != len(pl.Thresholds) {
		t.Errorf("fig9 rows = %d", len(f9.Rows))
	}
	if _, err := Figure9(pl, 1.5); err == nil {
		t.Error("ratio > 1 should error")
	}
}

func TestFigures10Through12(t *testing.T) {
	pl := testPipeline(t, 6)
	one, two, err := pl.StandardImprovements()
	if err != nil {
		t.Fatal(err)
	}
	runOne, err := pl.RunImprovement(one)
	if err != nil {
		t.Fatal(err)
	}
	runTwo, err := pl.RunImprovement(two)
	if err != nil {
		t.Fatal(err)
	}
	f10 := Figure10(pl, runOne, runTwo)
	if len(f10.Rows) != len(pl.Thresholds) {
		t.Errorf("fig10 rows = %d", len(f10.Rows))
	}
	f11 := Figure11(pl, runOne, runTwo)
	if len(f11.Rows) != 2*len(pl.Thresholds) {
		t.Errorf("fig11 rows = %d", len(f11.Rows))
	}
	f12, err := Figure12(pl, 15000, runOne, runTwo)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Rows) == 0 {
		t.Error("fig12 empty")
	}
	if !strings.Contains(f12.Title, "15000") {
		t.Errorf("fig12 title = %q", f12.Title)
	}
}

func TestFigure13(t *testing.T) {
	f13, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	// 11 sampled δ′ points from 50 to 70 step 2.
	if len(f13.Rows) != 11 {
		t.Errorf("fig13 rows = %d, want 11", len(f13.Rows))
	}
	out := f13.Render()
	// 54 answers → worst (0.30, 0.5556), best (0.34, 0.6296).
	if !strings.Contains(out, "0.5556") || !strings.Contains(out, "0.6296") {
		t.Errorf("fig13 missing the paper's δ' example values:\n%s", out)
	}
}

func TestRenderAlignment(t *testing.T) {
	f := &FigureResult{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "longheader"},
		Rows:   [][]string{{"verylongcell", "b"}},
		Notes:  []string{"n1"},
	}
	out := f.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "note: ") {
		t.Errorf("notes not rendered: %q", lines[3])
	}
}
