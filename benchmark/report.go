package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one run of one workload found. metrics are the
// names BENCHMARK.json declares for the run's mode and go into the
// JSON result; diags are printed only.
type report struct {
	workload  string
	metrics   []metric
	diags     []metric
	notes     []string
	attempted int
	// failed counts requests that errored, were refused or answered
	// wrongly, plus any other check the run failed.
	failed   int
	problems []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) diag(name string, v float64, unit string) {
	r.diags = append(r.diags, metric{name, v, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed check; it makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes every metric as "workload metric value unit", then the
// notes and problems as comments.
func (r *report) print(w io.Writer) {
	for _, m := range append(append([]metric(nil), r.metrics...), r.diags...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.workload, r.attempted, r.workload, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", r.workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.workload, p)
	}
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish fails the run on every metric that is not a finite number,
// which the JSON result cannot encode, and sets it to 0.
func (r *report) finish() {
	for i, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.fail("%s is %v", m.name, m.value)
			r.metrics[i].value = 0
		}
	}
}

// result builds the JSON result of a finished report.
func (r *report) result() result {
	out := result{Attempted: max(1, r.attempted), Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	out.Correct, out.Failed = r.correct(), r.failed
	return out
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
