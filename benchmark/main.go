// Command benchmark measures matchd end to end and layer by layer.
//
// For each workload it generates a corpus and a request schedule from
// the seed, builds and boots matchd as a subprocess, drives it over the
// wire from this one process, checks every answer against an
// independent in-process reference, and prints every metric as
// "workload metric value unit". With -workload it ends with one JSON
// line: correct, attempted, failed, and the metrics BENCHMARK.json
// declares for the mode (-trace 0: end to end, -trace 1: per layer).
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-layers] [-runs N]
//
// The benchmark builds matchd from the working directory, which must be
// the repository root.
//
// See benchmark/README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (empty: all, without the JSON line)")
		seed    = fs.Uint64("seed", 1, "seed of the corpus and the request schedule")
		seconds = fs.Float64("seconds", 25, "measured seconds per run")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer run")
		layers  = fs.Bool("layers", false, "same as -trace 1")
		runs    = fs.Int("runs", 1, "runs per workload on fresh daemons and seeds seed, seed+1, ...; >1 prints median and IQR")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	p := runParams{seed: *seed, seconds: *seconds, trace: *layers || *trace == 1}
	return measure(selected, p, *runs, *name != "" && *runs == 1, out)
}

// measure builds matchd from the repository in the working directory
// and runs each workload runs times on seeds p.seed, p.seed+1, ...,
// printing every metric; with result it ends with the JSON line of the
// last run.
func measure(selected []workload, p runParams, runs int, result bool, out io.Writer) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "matchd")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	if p.matchd, err = buildMatchd(root, build); err != nil {
		return err
	}
	// Per process, so a test run beside a benchmark run cannot clobber it.
	p.work = filepath.Join(build, "work-"+strconv.Itoa(os.Getpid()))
	fmt.Fprintf(out, "# env nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), p.seed, p.seconds, b2i(p.trace))
	seed0 := p.seed
	var last *report
	for _, w := range selected {
		var reps []*report
		for r := 0; r < runs; r++ {
			p.seed = seed0 + uint64(r)
			rep, err := runWorkload(w, p)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, p.seed, err)
			}
			if err := checkDeclared(rep, p.trace); err != nil {
				return err
			}
			rep.finish()
			rep.print(out)
			reps = append(reps, rep)
			last = rep
		}
		if runs > 1 {
			printSpread(out, reps)
		}
	}
	if result {
		return writeResult(out, last.result())
	}
	return nil
}

// checkDeclared fails a run whose metric set is not exactly the one
// BENCHMARK.json declares for its mode.
func checkDeclared(rep *report, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	got := map[string]bool{}
	for _, m := range rep.metrics {
		got[m.name] = true
	}
	for _, d := range want {
		if !got[d.name] {
			return fmt.Errorf("%s: metric %s not measured", rep.workload, d.name)
		}
		delete(got, d.name)
	}
	for n := range got {
		return fmt.Errorf("%s: metric %s is not declared", rep.workload, n)
	}
	return nil
}

// printSpread prints each metric's median over the runs and its
// spread, the distance between the first and third quartiles as a
// share of the median — the figure the bounds in BENCHMARK.json are
// set against.
func printSpread(out io.Writer, reps []*report) {
	vals := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for _, rep := range reps {
		for _, m := range append(append([]metric(nil), rep.metrics...), rep.diags...) {
			if _, ok := vals[m.name]; !ok {
				order = append(order, m.name)
			}
			vals[m.name] = append(vals[m.name], m.value)
			units[m.name] = m.unit
		}
	}
	for _, n := range order {
		med, iqr := spread(vals[n])
		fmt.Fprintf(out, "%s %s median=%.6g %s iqr/median=%.4f runs=%d\n", reps[0].workload, n, med, units[n], iqr, len(vals[n]))
	}
}

// spread returns the median of xs and (Q3 − Q1)/median, the
// quartiles computed exactly as Python's statistics.quantiles(n=4)
// does by default.
func spread(xs []float64) (median, rel float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	median = q(2)
	if median == 0 {
		return 0, 0
	}
	return median, (q(3) - q(1)) / median
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
