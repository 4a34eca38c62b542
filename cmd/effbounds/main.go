// Command effbounds regenerates every evaluation artifact of the paper
// "Effectiveness Bounds for Non-Exhaustive Schema Matching Systems"
// (Smiljanić, van Keulen, Jonker; ICDE 2006).
//
// Usage:
//
//	effbounds [flags] <figure>...
//	effbounds [flags] all
//
// Figures: fig5 fig6 fig8 fig9 fig10 fig11 fig12 fig13
//
// Ablations: ablation-beam ablation-clusters ablation-grid
// ablation-weights analysis-perturb (all selected by "ablations")
//
// "report" prints a markdown effectiveness-guarantee report for the
// two standard improvements.
//
// Flags:
//
//	-seed N       corpus seed (default 1)
//	-schemas N    repository size in schemas (default 120)
//	-steps N      threshold sweep steps (default 15)
//	-maxdelta D   top of the threshold sweep (default 0.45)
//	-ratio R      fixed ratio for fig9 (default 0.9)
//	-hguess N     |H| guess for fig12 (default 15000)
//	-validate     additionally assert true P/R lies inside the bounds
//	-csv DIR      additionally write each figure's table to DIR/<fig>.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "effbounds:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("effbounds", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "corpus seed")
	schemas := fs.Int("schemas", 120, "repository size in schemas")
	steps := fs.Int("steps", 15, "threshold sweep steps")
	maxDelta := fs.Float64("maxdelta", 0.45, "top of the threshold sweep")
	ratio := fs.Float64("ratio", 0.9, "fixed answer size ratio for fig9")
	hGuess := fs.Int("hguess", 15000, "|H| guess for fig12")
	validate := fs.Bool("validate", false, "assert true P/R lies inside the bounds")
	csvDir := fs.String("csv", "", "write each figure's table to this directory as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	figs := fs.Args()
	if len(figs) == 0 {
		return fmt.Errorf("no figure given; try: effbounds all")
	}
	if len(figs) == 1 && figs[0] == "all" {
		figs = []string{"fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	}
	if len(figs) == 1 && figs[0] == "ablations" {
		figs = []string{"ablation-beam", "ablation-clusters", "ablation-grid", "ablation-weights", "analysis-perturb"}
	}

	needPipeline := false
	for _, f := range figs {
		if f != "fig8" && f != "fig13" {
			needPipeline = true
		}
	}
	var pl *core.Pipeline
	var runOne, runTwo *core.Run
	scfg := synth.DefaultConfig(*seed)
	scfg.NumSchemas = *schemas
	// One scoring engine spans every figure and ablation of
	// this invocation; pipelines, matchers, and cluster indexes all draw
	// node-pair scores from it.
	opt := core.Options{
		Synth:      scfg,
		Thresholds: eval.Thresholds(0, *maxDelta, *steps),
		Scorer:     engine.New(nil),
	}
	if needPipeline {
		var err error
		pl, err = core.NewPipeline(opt)
		if err != nil {
			return err
		}
		fmt.Printf("scenario: %d schemas, %d elements, |H| = %d, |A_S1(max)| = %d\n\n",
			pl.Scenario.Repo.Len(), pl.Scenario.Repo.NumElements(), pl.Truth.Size(), pl.S1.Len())
	}
	needRuns := false
	for _, f := range figs {
		switch f {
		case "fig10", "fig11", "fig12", "ablation-grid", "report":
			needRuns = true
		}
	}
	if needRuns {
		one, two, err := pl.StandardImprovements()
		if err != nil {
			return err
		}
		if runOne, err = pl.RunImprovement(one); err != nil {
			return err
		}
		if runTwo, err = pl.RunImprovement(two); err != nil {
			return err
		}
		if *validate {
			for _, r := range []*core.Run{runOne, runTwo} {
				if err := r.ValidateBounds(); err != nil {
					return err
				}
				fmt.Printf("validated: true P/R of %s inside bounds at all %d thresholds\n",
					r.Name, len(r.Bounds))
			}
			fmt.Println()
		}
	}

	for _, f := range figs {
		if f == "report" {
			for _, r := range []*core.Run{runOne, runTwo} {
				if r == nil {
					return fmt.Errorf("report requires the standard improvement runs")
				}
				if err := core.WriteReport(os.Stdout, pl, r); err != nil {
					return err
				}
				fmt.Println()
			}
			continue
		}
		res, err := figure(f, pl, opt, runOne, runTwo, *ratio, *hGuess)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV dumps one figure's table as <dir>/<id>.csv.
func writeCSV(dir string, res *core.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, res.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(res.Header); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

func figure(name string, pl *core.Pipeline, opt core.Options, one, two *core.Run, ratio float64, hGuess int) (*core.FigureResult, error) {
	switch strings.ToLower(name) {
	case "fig5":
		return core.Figure5(pl), nil
	case "fig6":
		return core.Figure6(pl), nil
	case "fig8":
		return core.Figure8()
	case "fig9":
		return core.Figure9(pl, ratio)
	case "fig10":
		return core.Figure10(pl, one, two), nil
	case "fig11":
		return core.Figure11(pl, one, two), nil
	case "fig12":
		return core.Figure12(pl, hGuess, one, two)
	case "fig13":
		return core.Figure13()
	case "analysis-perturb":
		return core.PerturbationAnalysis(pl)
	case "ablation-beam":
		return core.AblationBeamWidth(pl, []int{4, 8, 16, 32, 64, 128})
	case "ablation-clusters":
		return core.AblationClusterSelection(pl, []int{1, 2, 4, 7, 12, 20})
	case "ablation-grid":
		return core.AblationGridResolution(pl, two, []int{2, 4, 8, 15, 30})
	case "ablation-weights":
		return core.AblationObjectiveWeights(opt,
			[][2]float64{{1, 0}, {0.8, 0.2}, {0.7, 0.3}, {0.5, 0.5}, {0.3, 0.7}})
	default:
		return nil, fmt.Errorf("unknown figure %q (known: fig5 fig6 fig8–fig13, ablation-beam, ablation-clusters, ablation-grid, ablation-weights)", name)
	}
}
