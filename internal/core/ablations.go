package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/matching"
)

// Ablation drivers: parameter sweeps over the design choices the
// reproduction makes, each answering one "what if" about the technique
// or about the matchers feeding it. Each returns a FigureResult so the
// CLI and the benchmark harness render them like the paper figures.

// AblationBeamWidth sweeps the beam width of the S2-one-style
// improvement: wider beams retain more answers, so the bounds tighten —
// the efficiency/effectiveness dial the paper's introduction motivates,
// evaluated without ground truth.
func AblationBeamWidth(pl *Pipeline, widths []int) (*FigureResult, error) {
	res := &FigureResult{
		ID:    "ablation-beam",
		Title: "beam width vs retained answers and guaranteed effectiveness",
		Header: []string{"width", "answers", "ratio@max", "worstP@mid", "bestP@mid",
			"maxPrecLoss", "maxRecLoss"},
	}
	mid := len(pl.Thresholds) / 2
	for _, w := range widths {
		m, err := pl.BeamImprovement(w)
		if err != nil {
			return nil, err
		}
		run, err := pl.RunImprovement(m)
		if err != nil {
			return nil, err
		}
		loss, err := bounds.MaxLoss(pl.S1Curve, run.Bounds, 0)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(w),
			fmt.Sprint(run.Set.Len()),
			f4(run.Ratios[len(run.Ratios)-1]),
			f4(run.Bounds[mid].WorstP),
			f4(run.Bounds[mid].BestP),
			f4(loss.MaxPrecisionLoss),
			f4(loss.MaxRecallLoss),
		})
	}
	res.Notes = append(res.Notes,
		"wider beams retain more of the tail, narrowing the bounds and shrinking the guaranteed loss")
	return res, nil
}

// AblationClusterSelection sweeps how many clusters the
// cluster-restricted improvement searches per personal element — the
// exact dial of the paper's own system ([16]) whose validation cost
// motivated the bounds technique.
func AblationClusterSelection(pl *Pipeline, tops []int) (*FigureResult, error) {
	// The service's lazily built index backs every "clustered:N" spec
	// of the sweep, so the offline clustering happens exactly once.
	ix, err := pl.Service().Index()
	if err != nil {
		return nil, err
	}
	res := &FigureResult{
		ID:    "ablation-clusters",
		Title: fmt.Sprintf("clusters searched per element (of %d) vs guarantees", ix.K()),
		Header: []string{"top", "answers", "ratio@max", "worstP@mid", "worstR@mid",
			"maxPrecLoss", "maxRecLoss"},
	}
	mid := len(pl.Thresholds) / 2
	for _, top := range tops {
		if top > ix.K() {
			continue
		}
		run, err := pl.RunSpec(fmt.Sprintf("clustered:%d", top))
		if err != nil {
			return nil, err
		}
		loss, err := bounds.MaxLoss(pl.S1Curve, run.Bounds, 0)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(top),
			fmt.Sprint(run.Set.Len()),
			f4(run.Ratios[len(run.Ratios)-1]),
			f4(run.Bounds[mid].WorstP),
			f4(run.Bounds[mid].WorstR),
			f4(loss.MaxPrecisionLoss),
			f4(loss.MaxRecallLoss),
		})
	}
	res.Notes = append(res.Notes,
		"the trade-off table the paper wants to produce per setting without human judges")
	return res, nil
}

// AblationGridResolution recomputes the incremental and naive bounds
// of one improvement on coarser and finer threshold grids. The paper's
// Section 3.2 argues increments gain accuracy; this sweep quantifies
// how much of that gain survives coarse grids (fewer increments =
// closer to the naive bound).
func AblationGridResolution(pl *Pipeline, run *Run, steps []int) (*FigureResult, error) {
	res := &FigureResult{
		ID:     "ablation-grid",
		Title:  "threshold grid resolution vs bound tightness for " + run.Name,
		Header: []string{"steps", "meanWidthP(incremental)", "meanWidthP(naive)", "gain"},
	}
	maxDelta := pl.MaxDelta()
	for _, n := range steps {
		if n < 1 {
			continue
		}
		ts := eval.Thresholds(0, maxDelta, n)
		curve := eval.MeasuredCurve(pl.S1, pl.Truth, ts)
		sizes := make([]int, len(ts))
		for i, d := range ts {
			sizes[i] = run.Set.CountAt(d)
		}
		in := bounds.Input{S1: curve, Sizes2: sizes, HOverride: pl.Truth.Size()}
		inc, err := bounds.Incremental(in)
		if err != nil {
			return nil, err
		}
		naive, err := bounds.Naive(in)
		if err != nil {
			return nil, err
		}
		wInc := bounds.IntervalWidth(inc, 0)
		wNaive := bounds.IntervalWidth(naive, 0)
		gain := 0.0
		if wNaive.MeanP > 0 {
			gain = 1 - wInc.MeanP/wNaive.MeanP
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), f4(wInc.MeanP), f4(wNaive.MeanP), f4(gain),
		})
	}
	res.Notes = append(res.Notes,
		"finer grids give the incremental algorithm more increments to exploit;",
		"the naive bound is grid-insensitive by construction")
	return res, nil
}

// AblationObjectiveWeights re-runs the whole pipeline under different
// name/structure weightings of ∆ and validates that the bounds contain
// the truth under each — the technique is agnostic to the objective
// function as long as S1 and S2 share it.
func AblationObjectiveWeights(opt Options, weights [][2]float64) (*FigureResult, error) {
	res := &FigureResult{
		ID:     "ablation-weights",
		Title:  "objective weightings vs S1 effectiveness and bound validity",
		Header: []string{"nameW", "structW", "S1 P@mid", "S1 R@mid", "boundsContainTruth"},
	}
	// One scorer spans the whole sweep (the name scores do not depend
	// on the objective weights). The precedence mirrors NewPipeline:
	// Options.Scorer, then Match.Scorer, then a fresh engine.
	scorer := opt.Scorer
	if scorer == nil {
		scorer = opt.Match.Scorer
	}
	if scorer == nil {
		scorer = engine.New(nil)
	}
	for _, w := range weights {
		o := opt
		o.Scorer = scorer
		o.Match = matching.Config{
			Scorer:          scorer,
			NameWeight:      w[0],
			StructWeight:    w[1],
			MaxDepthStretch: 3,
		}
		pl, err := NewPipeline(o)
		if err != nil {
			return nil, err
		}
		one, _, err := pl.StandardImprovements()
		if err != nil {
			return nil, err
		}
		run, err := pl.RunImprovement(one)
		if err != nil {
			return nil, err
		}
		contained := "yes"
		if err := run.ValidateBounds(); err != nil {
			contained = "VIOLATED: " + err.Error()
		}
		mid := len(pl.Thresholds) / 2
		res.Rows = append(res.Rows, []string{
			f3(w[0]), f3(w[1]),
			f4(pl.S1Curve[mid].Precision), f4(pl.S1Curve[mid].Recall),
			contained,
		})
	}
	res.Notes = append(res.Notes,
		"the guarantee must hold under any ∆ shared by S1 and S2; only S1's own curve shifts")
	return res, nil
}
