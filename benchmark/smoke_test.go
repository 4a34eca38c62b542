package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// tiny shrinks a workload's corpus and rates fiftyfold, so a test can
// run it in about a second.
func tiny(w workload) workload {
	w.schemas = max(8, w.schemas/50)
	w.rate = max(10, w.rate/50)
	return w
}

func tinyWorkloads() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		out[i] = tiny(w)
	}
	return out
}

// TestSmoke runs every workload end to end and per layer at a tiny
// scale against a freshly built matchd: every declared metric must be
// printed and every check must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots matchd")
	}
	t.Chdir("..")
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		if err := measure(tinyWorkloads(), runParams{seed: 1, seconds: 1, trace: trace}, 1, false, &out); err != nil {
			t.Fatalf("trace %v: %v\n%s", trace, err, out.String())
		}
		text := out.String()
		if strings.Contains(text, "FAILED") {
			t.Errorf("trace %v: a check failed:\n%s", trace, text)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		for _, w := range workloads {
			if !strings.Contains(text, w.name+" failed 0 count\n") {
				t.Errorf("trace %v: %s reports failures", trace, w.name)
			}
			for _, d := range want {
				if !strings.Contains(text, "\n"+w.name+" "+d.name+" ") {
					t.Errorf("trace %v: %s did not print %s", trace, w.name, d.name)
				}
			}
		}
	}
}

// TestSingleWorkloadResult checks the one-workload form: its last line
// is the JSON result with exactly the end-to-end metrics.
func TestSingleWorkloadResult(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots matchd")
	}
	t.Chdir("..")
	w, _ := workloadByName("churn")
	var out bytes.Buffer
	if err := measure([]workload{tiny(w)}, runParams{seed: 3, seconds: 1}, 1, true, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v\n%s", res, out.String())
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		// A tiny run may use less daemon CPU than one clock tick.
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value < 0 || (m.Value == 0 && d.name != "cpu_ms_per_req") {
			t.Errorf("%s: %+v", d.name, m)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-workload", "nosuch"},
		{"-seconds", "0"},
		{"-runs", "0"},
		{"stray"},
		{}, // the tests run in benchmark/, not the repository root
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
