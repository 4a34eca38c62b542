// Command matchbench runs the exhaustive system and a configurable
// list of non-exhaustive improvements on one scenario through the
// public match service façade, reporting answer counts, per-request
// service stats (wall time, search-work counters, name pairs scored),
// true effectiveness (from planted truth), and the
// efficiency/effectiveness trade-off the paper's technique is built to
// analyze.
//
// Systems are named by matcher registry specs: "exhaustive",
// "parallel[:N]", "beam:W", "topk:M", "clustered[:T]".
//
// Usage:
//
//	matchbench [-seed N] [-schemas N] [-delta D] [-matchers specs]
//	           [-cpuprofile file] [-memprofile file]
//	matchbench -matchers beam:8,topk:0.05,clustered:3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/synth"
	"repro/match"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "scenario seed")
	schemas := fs.Int("schemas", 120, "repository size in schemas")
	delta := fs.Float64("delta", 0.45, "matching threshold")
	specs := fs.String("matchers", "exhaustive,parallel,topk:0.035,clustered,beam:16",
		"comma-separated matcher registry specs to run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	systems, err := match.ParseList(*specs)
	if err != nil {
		return err
	}

	cfg := synth.DefaultConfig(*seed)
	cfg.NumSchemas = *schemas
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		return err
	}
	// One service for the whole bench: problem tables, cluster index,
	// the baseline run, and every requested system share its scoring
	// engine and session cache.
	scorer := engine.New(nil)
	truth := eval.NewTruth(sc.TruthKeys())
	// A degenerate -delta 0 still needs a valid (single-point) grid.
	thresholds := []float64{0}
	if *delta > 0 {
		thresholds = eval.Thresholds(0, *delta, 10)
	}
	svc, err := match.NewService(sc.Repo,
		match.WithScorer(scorer),
		match.WithThresholds(thresholds),
		match.WithTruth(truth),
	)
	if err != nil {
		return err
	}
	ctx := context.Background()

	prob, err := svc.Problem(sc.Personal)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %d schemas, %d elements, |H| = %d, search space %d mappings\n\n",
		sc.Repo.Len(), sc.Repo.NumElements(), truth.Size(), prob.SearchSpaceSize())

	// Run every requested system first: an exhaustive-family row at the
	// horizon seeds the service's baseline cache, so the S1 reference
	// below (and the bounds behind non-exhaustive rows) reuse a run the
	// table already pays for instead of adding one.
	results := make([]*match.Result, len(systems))
	for i, sp := range systems {
		res, err := svc.Match(ctx, match.Request{
			Personal: sc.Personal,
			Delta:    *delta,
			Matcher:  sp.String(),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp, err)
		}
		results[i] = res
	}
	s1, _, err := svc.Baseline(ctx, sc.Personal)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tanswers\ttime\tcandidates\tpruned\tpairs\tprecision\trecall\tF1\tAP\tratio")
	for i, sp := range systems {
		res := results[i]
		// Non-exhaustive requests carry bounds, and the service only
		// attaches them after verifying the subset containment — a
		// bench-side recheck is needed only if no bounds came back.
		if !sp.Exhaustive() && res.Bounds == nil {
			if err := res.Set.SubsetOf(s1); err != nil {
				return fmt.Errorf("%s: %w", sp, err)
			}
		}
		sum := eval.Summarize(res.Set.At(*delta), truth)
		ratio := 1.0
		if s1.Len() > 0 {
			ratio = float64(res.Set.Len()) / float64(s1.Len())
		}
		st := res.Stats
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\n",
			st.Matcher, res.Set.Len(), st.Wall.Round(time.Microsecond),
			st.Search.Candidates, st.Search.Pruned, st.Cache.Misses,
			sum.Precision, sum.Recall, sum.F1, sum.AveragePrecision, ratio)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nscoring engine: %d name pairs scored\n", scorer.Stats().Misses)
	return nil
}

// startProfiles starts a CPU profile and arranges a heap profile to be
// written by the returned stop function; either path may be empty. The
// heap profile runs GC first so it reflects live objects, not garbage.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
