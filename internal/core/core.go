// Package core wires the substrates into the paper's experimental
// pipeline: generate (or load) a matching scenario, run the exhaustive
// system S1 and its non-exhaustive improvements S2, measure curves and
// answer-size ratios, and compute the effectiveness bounds. The
// figure drivers in figures.go regenerate every evaluation artifact of
// the paper (Figures 5, 6, 8, 9, 10, 11, 12, 13) from this pipeline.
//
// Since the match façade landed, core is a thin experiment client of
// repro/match: every Pipeline owns a match.Service over its scenario's
// repository, and all matcher execution — the exhaustive baseline,
// every improvement run, registry-spec matcher construction — goes
// through it. What remains here is experiment-side: scenario
// generation, planted-truth evaluation, naive-bounds comparison, and
// the figure/ablation drivers.
package core

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/matchers/clustered"
	"repro/internal/matching"
	"repro/internal/synth"
	"repro/internal/xmlschema"
	"repro/match"
)

// Pipeline is one fully prepared experiment: scenario, problem, the
// exhaustive system's answers, and its measured curve against the
// planted truth. Matcher execution is delegated to the pipeline's
// match.Service.
type Pipeline struct {
	Scenario   *synth.Scenario
	Problem    *matching.Problem
	Thresholds []float64
	Truth      *eval.Truth
	// svc is the matching service every run goes through: it owns the
	// shared scoring engine, the cached baseline answers, and the
	// lazily built cluster index.
	svc *match.Service
	// S1 is the exhaustive answer set at the maximum threshold.
	S1 *matching.AnswerSet
	// S1Curve is S1's measured P/R curve on the planted truth.
	S1Curve eval.Curve
}

// Options configures NewPipeline. Zero values select the experiment
// defaults (see README.md).
type Options struct {
	// Personal schema; nil selects synth.PersonalLibrary.
	Personal *xmlschema.Schema
	// Synth configures the corpus; zero NumSchemas selects
	// synth.DefaultConfig(Seed) shrunk to 120 schemas.
	Synth synth.Config
	// Match configures the objective; zero selects
	// matching.DefaultConfig.
	Match matching.Config
	// Thresholds of the δ sweep; nil selects eval.Thresholds(0, 0.45, 15).
	Thresholds []float64
	// Scorer is the scoring engine every stage shares. Nil selects
	// Match.Scorer, or else a fresh engine over the default name metric.
	Scorer engine.Scorer
	// Seed for the default synth config when Synth is zero.
	Seed uint64
	// Index configures the service's clustered index. The zero value
	// selects the pipeline default (Seed 17, as the paper-figure
	// experiments use); a nil Index.Scorer inherits the pipeline
	// scorer either way, so clustering always scores like matching.
	Index clustered.IndexConfig
}

// NewPipeline generates the scenario, builds the matching service,
// runs the exhaustive baseline at the maximum threshold, and measures
// its curve.
func NewPipeline(opt Options) (*Pipeline, error) {
	personal := opt.Personal
	if personal == nil {
		personal = synth.PersonalLibrary()
	}
	scfg := opt.Synth
	if scfg.NumSchemas == 0 {
		scfg = synth.DefaultConfig(opt.Seed)
		scfg.NumSchemas = 120
	}
	mcfg := opt.Match
	if mcfg.NameWeight == 0 && mcfg.StructWeight == 0 {
		scorer := mcfg.Scorer
		mcfg = matching.DefaultConfig()
		mcfg.Scorer = scorer
	}
	scorer := opt.Scorer
	if scorer == nil {
		scorer = mcfg.Scorer
	}
	if scorer == nil {
		scorer = engine.New(nil)
	}
	mcfg.Scorer = scorer
	thresholds := opt.Thresholds
	if thresholds == nil {
		thresholds = eval.Thresholds(0, 0.45, 15)
	}
	sc, err := synth.Generate(personal, scfg)
	if err != nil {
		return nil, fmt.Errorf("core: generating scenario: %w", err)
	}
	truth := eval.NewTruth(sc.TruthKeys())
	ixCfg := opt.Index
	if ixCfg == (clustered.IndexConfig{}) {
		ixCfg = clustered.IndexConfig{Seed: 17}
	}
	if ixCfg.Scorer == nil {
		ixCfg.Scorer = scorer
	}
	// The façade owns everything matcher-side from here: problem cost
	// tables, the baseline run (ParallelExhaustive), the cluster index
	// (seeded like the paper's experiments), and the bounds attached
	// to improvement runs.
	svc, err := match.NewService(sc.Repo,
		match.WithScorer(scorer),
		match.WithMatchConfig(mcfg),
		match.WithThresholds(thresholds),
		match.WithTruth(truth),
		match.WithIndexConfig(ixCfg),
	)
	if err != nil {
		return nil, fmt.Errorf("core: building service: %w", err)
	}
	prob, err := svc.Problem(sc.Personal)
	if err != nil {
		return nil, fmt.Errorf("core: building problem: %w", err)
	}
	s1, curve, err := svc.Baseline(context.Background(), sc.Personal)
	if err != nil {
		return nil, fmt.Errorf("core: exhaustive matching: %w", err)
	}
	return &Pipeline{
		Scenario:   sc,
		Problem:    prob,
		Thresholds: thresholds,
		Truth:      truth,
		svc:        svc,
		S1:         s1,
		S1Curve:    curve,
	}, nil
}

// Service returns the pipeline's matching service façade.
func (pl *Pipeline) Service() *match.Service { return pl.svc }

// Scorer returns the pipeline's shared scoring engine.
func (pl *Pipeline) Scorer() engine.Scorer { return pl.svc.Scorer() }

// MaxDelta returns the top of the threshold sweep.
func (pl *Pipeline) MaxDelta() float64 { return pl.Thresholds[len(pl.Thresholds)-1] }

// Run is the outcome of running one non-exhaustive improvement through
// the pipeline: its answer set, size ratios, true measured curve (the
// pipeline knows the planted truth — the paper could not), and the
// bounds computed WITHOUT that truth.
type Run struct {
	// Name of the improvement.
	Name string
	// Set is the improvement's answer set at the maximum threshold.
	Set *matching.AnswerSet
	// Sizes2[i] = |A_S2(δ_i)|.
	Sizes2 []int
	// Ratios[i] = |A_S2(δ_i)| / |A_S1(δ_i)| (1 when S1 is empty).
	Ratios []float64
	// TrueCurve is the improvement's real measured P/R curve, used
	// only to validate the bounds.
	TrueCurve eval.Curve
	// Bounds are the incremental effectiveness bounds (Section 3.2 +
	// 3.4), as attached by the match service (computed from S1's curve
	// and the sizes alone).
	Bounds bounds.Curve
	// NaiveBounds are the per-threshold bounds (Section 3.1), for
	// comparison.
	NaiveBounds bounds.Curve
	// Stats is the service-reported work of the improvement run.
	Stats match.Stats
}

// RunImprovement executes matcher through the service façade — which
// verifies the subset containment the technique requires and attaches
// the incremental bounds — then adds the experiment-side extras: true
// curve, size ratios, and the naive bounds for comparison.
func (pl *Pipeline) RunImprovement(m matching.Matcher) (*Run, error) {
	return pl.RunImprovementContext(context.Background(), m)
}

// RunImprovementContext is RunImprovement under a caller context.
func (pl *Pipeline) RunImprovementContext(ctx context.Context, m matching.Matcher) (*Run, error) {
	res, err := pl.svc.Match(ctx, match.Request{
		Personal: pl.Scenario.Personal,
		Delta:    pl.MaxDelta(),
		System:   m,
	})
	if err != nil {
		return nil, fmt.Errorf("core: running %s: %w", m.Name(), err)
	}
	set := res.Set
	sizes := make([]int, len(pl.Thresholds))
	ratios := make([]float64, len(pl.Thresholds))
	for i, d := range pl.Thresholds {
		sizes[i] = set.CountAt(d)
		if a1 := pl.S1.CountAt(d); a1 > 0 {
			ratios[i] = float64(sizes[i]) / float64(a1)
		} else {
			ratios[i] = 1
		}
	}
	naive, err := bounds.Naive(bounds.Input{S1: pl.S1Curve, Sizes2: sizes, HOverride: pl.Truth.Size()})
	if err != nil {
		return nil, fmt.Errorf("core: naive bounds for %s: %w", m.Name(), err)
	}
	return &Run{
		Name:        m.Name(),
		Set:         set,
		Sizes2:      sizes,
		Ratios:      ratios,
		TrueCurve:   eval.MeasuredCurve(set, pl.Truth, pl.Thresholds),
		Bounds:      res.Bounds,
		NaiveBounds: naive,
		Stats:       res.Stats,
	}, nil
}

// RunSpec executes a registry-spec improvement ("beam:32",
// "clustered:3") through the façade.
func (pl *Pipeline) RunSpec(spec string) (*Run, error) {
	m, err := pl.svc.Matcher(spec)
	if err != nil {
		return nil, err
	}
	return pl.RunImprovement(m)
}

// ValidateBounds checks that the improvement's true P/R lies inside
// the computed incremental bounds at every threshold — the guarantee
// the paper proves. It returns a descriptive error on the first
// violation.
func (r *Run) ValidateBounds() error {
	for i, pt := range r.Bounds {
		tp := r.TrueCurve[i].Precision
		tr := r.TrueCurve[i].Recall
		if !pt.Contains(tp, tr) {
			return fmt.Errorf("core: %s at δ=%.3f: true (P=%.4f, R=%.4f) outside P[%.4f, %.4f] × R[%.4f, %.4f]",
				r.Name, pt.Delta, tp, tr, pt.WorstP, pt.BestP, pt.WorstR, pt.BestR)
		}
	}
	return nil
}

// StandardImprovements builds the two improvements whose behaviours
// reproduce the paper's S2-one and S2-two (Figure 10), resolved
// through the service's matcher registry:
//
//   - S2-one: beam search (width 32) — retains a smoothly declining
//     fraction of answers as the threshold grows, like the paper's
//     first real system.
//   - S2-two: cluster-restricted search at the default selection
//     (K/6+1 clusters per element) — retains the best-scored answers
//     with high probability but loses most of the tail, like the
//     paper's second, more rigorous system.
func (pl *Pipeline) StandardImprovements() (s2one, s2two matching.Matcher, err error) {
	one, err := pl.svc.Matcher("beam:32")
	if err != nil {
		return nil, nil, err
	}
	two, err := pl.svc.Matcher("clustered")
	if err != nil {
		return nil, nil, err
	}
	return one, two, nil
}

// BeamImprovement returns a beam-search improvement with the given
// width, for parameter sweeps.
func (pl *Pipeline) BeamImprovement(width int) (matching.Matcher, error) {
	return pl.svc.Matcher(fmt.Sprintf("beam:%d", width))
}

// TopkImprovement returns an aggressive-pruning improvement with the
// given margin (the Theobald-style probabilistic top-k family the
// paper cites), for the ablation benchmarks. Under the prefix
// evaluation semantics its answer losses concentrate near the top
// threshold.
func (pl *Pipeline) TopkImprovement(margin float64) (matching.Matcher, error) {
	return pl.svc.Matcher(match.Spec{Family: match.FamilyTopk, Margin: margin}.String())
}
