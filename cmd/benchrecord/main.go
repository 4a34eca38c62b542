// Command benchrecord snapshots the repository's performance
// trajectory. In record mode (the default) it runs the benchmark suite
// (engine build-and-match, incremental index maintenance, sharded
// scatter-gather, candidate-index pruning) plus a short matchload
// replay, and writes the parsed results to the next free BENCH_<n>.json
// so successive PRs leave a comparable perf trail. In -check mode it
// compares the two most recent BENCH_<n>.json files and fails on large
// ns/op regressions — with fewer than two recordings there is nothing
// to compare and the check passes trivially.
//
// Usage:
//
//	go run ./cmd/benchrecord            # record BENCH_<n>.json
//	go run ./cmd/benchrecord -check     # gate: fail on >50% regressions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects every benchmark family the perf trail tracks.
const defaultBench = "BenchmarkEngine|BenchmarkIndexIncrementalVsRebuild|BenchmarkShardedScatterGather|BenchmarkCandidateIndex|BenchmarkKernel"

// record is the on-disk shape of one BENCH_<n>.json snapshot.
type record struct {
	RecordedAt string             `json:"recorded_at"`
	GoVersion  string             `json:"go_version"`
	BenchArgs  string             `json:"bench_args"`
	Benchmarks map[string]bench   `json:"benchmarks"`
	Load       *loadResult        `json:"load,omitempty"`
	Remote     *remoteResult      `json:"remote,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type bench struct {
	NsPerOp float64 `json:"ns_per_op"`
}

type loadResult struct {
	ThroughputRPS float64 `json:"throughput_rps"`
	P99Ms         float64 `json:"p99_ms"`
}

// remoteResult pairs the wire replay with its in-process reference:
// the same request mix over an in-process matchd listener versus
// direct Server.Match calls, so the recorded overhead is pure
// serialization + transport.
type remoteResult struct {
	RemoteRPS     float64 `json:"remote_rps"`
	RemoteP50Ms   float64 `json:"remote_p50_ms"`
	RemoteP99Ms   float64 `json:"remote_p99_ms"`
	LocalRPS      float64 `json:"local_rps"`
	LocalP50Ms    float64 `json:"local_p50_ms"`
	LocalP99Ms    float64 `json:"local_p99_ms"`
	OverheadP50Ms float64 `json:"overhead_p50_ms"`
}

func main() {
	check := flag.Bool("check", false, "compare the two most recent BENCH_<n>.json instead of recording")
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json files")
	pattern := flag.String("bench", defaultBench, "benchmark pattern to run")
	count := flag.Int("count", 3, "benchmark repetitions; the minimum ns/op is recorded")
	benchtime := flag.String("benchtime", "1x", "benchtime per repetition")
	threshold := flag.Float64("threshold", 0.5, "relative ns/op regression that fails -check")
	skipLoad := flag.Bool("skip-load", false, "record benchmarks only, no matchload replay")
	flag.Parse()

	if *check {
		os.Exit(runCheck(*dir, *threshold))
	}
	os.Exit(runRecord(*dir, *pattern, *count, *benchtime, *skipLoad))
}

// benchLine matches one `go test -bench` result line; the trailing
// groups carry any b.ReportMetric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+]+) ns/op(.*)$`)

// metricPair matches one "value unit" report following ns/op.
var metricPair = regexp.MustCompile(`([0-9.e+-]+) ([^\s]+)`)

func runRecord(dir, pattern string, count int, benchtime string, skipLoad bool) int {
	rec := record{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		BenchArgs:  fmt.Sprintf("-bench %q -benchtime %s -count %d", pattern, benchtime, count),
		Benchmarks: map[string]bench{},
		Metrics:    map[string]float64{},
	}
	args := []string{"test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "."}
	fmt.Fprintf(os.Stderr, "benchrecord: go %s\n", strings.Join(args, " "))
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: benchmarks failed: %v\n%s", err, out)
		return 1
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// Strip the -<GOMAXPROCS> suffix so recordings on different
		// machines keep comparable keys.
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := rec.Benchmarks[name]; !ok || ns < prev.NsPerOp {
			rec.Benchmarks[name] = bench{NsPerOp: ns}
		}
		for _, mp := range metricPair.FindAllStringSubmatch(m[3], -1) {
			if v, err := strconv.ParseFloat(mp[1], 64); err == nil {
				rec.Metrics[name+" "+mp[2]] = v
			}
		}
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchrecord: no benchmark results parsed from:\n%s", out)
		return 1
	}
	if !skipLoad {
		load, err := runLoad()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrecord: matchload replay failed: %v\n", err)
			return 1
		}
		rec.Load = load
		remote, err := runRemoteLoad()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrecord: matchload -remote replay failed: %v\n", err)
			return 1
		}
		rec.Remote = remote
	}
	path := nextPath(dir)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		return 1
	}
	fmt.Printf("recorded %d benchmarks to %s\n", len(rec.Benchmarks), path)
	return 0
}

var (
	completedLine = regexp.MustCompile(`completed\s+\d+ \(([0-9.]+) req/s\)`)
	p99Field      = regexp.MustCompile(`p99 (\S+)`)
)

// runLoad replays a small fixed matchload mix (heavy-tailed sizes, the
// shape pruning claims are made against) and parses throughput and p99.
func runLoad() (*loadResult, error) {
	args := []string{"run", "./cmd/matchload", "-tenants", "2", "-personals", "2",
		"-schemas", "12", "-requests", "60", "-queue", "64", "-sizedist", "zipf"}
	fmt.Fprintf(os.Stderr, "benchrecord: go %s\n", strings.Join(args, " "))
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	lr := &loadResult{}
	if m := completedLine.FindSubmatch(out); m != nil {
		lr.ThroughputRPS, _ = strconv.ParseFloat(string(m[1]), 64)
	} else {
		return nil, fmt.Errorf("no completed line in matchload output:\n%s", out)
	}
	if m := p99Field.FindSubmatch(out); m != nil {
		if d, err := time.ParseDuration(string(m[1])); err == nil {
			lr.P99Ms = float64(d) / float64(time.Millisecond)
		}
	}
	return lr, nil
}

var (
	remoteSide = regexp.MustCompile(`remote\s+\S+ wall \(([0-9.]+) req/s\)\s+p50 (\S+)\s+p99 (\S+)`)
	localSide  = regexp.MustCompile(`in-process\s+\S+ wall \(([0-9.]+) req/s\)\s+p50 (\S+)\s+p99 (\S+)`)
	overhead   = regexp.MustCompile(`p50 overhead (\S+) `)
)

// runRemoteLoad replays the same fixed mix through matchload -remote
// self and parses the wire-versus-in-process overhead pair.
func runRemoteLoad() (*remoteResult, error) {
	args := []string{"run", "./cmd/matchload", "-tenants", "2", "-personals", "2",
		"-schemas", "12", "-requests", "60", "-queue", "64", "-sizedist", "zipf",
		"-remote", "self", "-quiet"}
	fmt.Fprintf(os.Stderr, "benchrecord: go %s\n", strings.Join(args, " "))
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	ms := func(s string) float64 {
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0
		}
		return float64(d) / float64(time.Millisecond)
	}
	rr := &remoteResult{}
	if m := remoteSide.FindSubmatch(out); m != nil {
		rr.RemoteRPS, _ = strconv.ParseFloat(string(m[1]), 64)
		rr.RemoteP50Ms, rr.RemoteP99Ms = ms(string(m[2])), ms(string(m[3]))
	} else {
		return nil, fmt.Errorf("no remote overhead line in matchload output:\n%s", out)
	}
	if m := localSide.FindSubmatch(out); m != nil {
		rr.LocalRPS, _ = strconv.ParseFloat(string(m[1]), 64)
		rr.LocalP50Ms, rr.LocalP99Ms = ms(string(m[2])), ms(string(m[3]))
	} else {
		return nil, fmt.Errorf("no in-process overhead line in matchload output:\n%s", out)
	}
	if m := overhead.FindSubmatch(out); m != nil {
		rr.OverheadP50Ms = ms(string(m[1]))
	}
	return rr, nil
}

// benchFiles returns the BENCH_<n>.json files of dir sorted by n.
func benchFiles(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	type nf struct {
		n    int
		path string
	}
	var files []nf
	for _, p := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil {
			files = append(files, nf{n, p})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out
}

func nextPath(dir string) string {
	files := benchFiles(dir)
	n := 1
	if len(files) > 0 {
		last := files[len(files)-1]
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(last), "BENCH_"), ".json")
		if v, err := strconv.Atoi(base); err == nil {
			n = v + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
}

// runCheck compares the two most recent recordings: any benchmark
// present in both whose ns/op grew by more than threshold fails the
// gate. Load-replay numbers are reported but do not gate (the tiny
// corpus makes them noisy). Fewer than two recordings pass trivially.
func runCheck(dir string, threshold float64) int {
	files := benchFiles(dir)
	if len(files) < 2 {
		fmt.Printf("bench-check: %d recording(s) in %s — nothing to compare\n", len(files), dir)
		return 0
	}
	oldPath, newPath := files[len(files)-2], files[len(files)-1]
	var oldRec, newRec record
	for _, p := range []struct {
		path string
		into *record
	}{{oldPath, &oldRec}, {newPath, &newRec}} {
		data, err := os.ReadFile(p.path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(data, p.into); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: %s: %v\n", p.path, err)
			return 1
		}
	}
	fmt.Printf("bench-check: %s vs %s (fail above +%.0f%%)\n",
		filepath.Base(oldPath), filepath.Base(newPath), threshold*100)
	names := make([]string, 0, len(newRec.Benchmarks))
	for name := range newRec.Benchmarks {
		if _, ok := oldRec.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		o, n := oldRec.Benchmarks[name].NsPerOp, newRec.Benchmarks[name].NsPerOp
		change := n/o - 1
		verdict := "ok"
		if change > threshold {
			verdict = "REGRESSION"
			failed++
		}
		fmt.Printf("  %-55s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", name, o, n, change*100, verdict)
	}
	if oldRec.Load != nil && newRec.Load != nil {
		fmt.Printf("  load replay (informational): %.1f -> %.1f req/s, p99 %.1f -> %.1f ms\n",
			oldRec.Load.ThroughputRPS, newRec.Load.ThroughputRPS,
			oldRec.Load.P99Ms, newRec.Load.P99Ms)
	}
	if oldRec.Remote != nil && newRec.Remote != nil {
		fmt.Printf("  wire overhead (informational): p50 %.2f -> %.2f ms over in-process\n",
			oldRec.Remote.OverheadP50Ms, newRec.Remote.OverheadP50Ms)
	}
	if failed > 0 {
		fmt.Printf("bench-check: %d regression(s)\n", failed)
		return 1
	}
	fmt.Println("bench-check: pass")
	return 0
}
