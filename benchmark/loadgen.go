package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the timing of one open-loop request. Latency runs from
// due, not from sent: a stall that delays later sends is charged to
// the requests it delayed.
type outcome struct {
	due    time.Time // when the schedule says the request is sent
	queued time.Time // when the dispatcher released it to the workers
	done   time.Time
	err    error
}

// openLoop sends n requests at a fixed rate over conns workers, each
// holding one connection, whatever the server's pace: a request due
// while every worker is busy waits for one and that wait counts. do
// runs request i on worker w.
func openLoop(n, conns int, rate float64, do func(w, i int) error) []outcome {
	out := make([]outcome, n)
	// Sized to the schedule so the dispatcher never blocks on a slow
	// server; an open loop keeps sending.
	ch := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				out[i].err = do(w, i)
				out[i].done = time.Now()
			}
		}(w)
	}
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].due, out[i].queued = due, time.Now()
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// closedLoop runs conns workers that each send their next request as
// soon as the previous one returns, for d. It returns how many requests
// completed inside the window, how many failed, and how many were
// started in all; requests still running at the end are awaited but
// not counted as completed.
func closedLoop(conns int, d time.Duration, do func(w, i int) error) (completed, failed, started int) {
	var next, ok, bad atomic.Int64
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				err := do(w, int(next.Add(1)-1))
				switch {
				case err != nil:
					bad.Add(1)
				case !time.Now().After(end):
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(ok.Load()), int(bad.Load()), int(next.Load())
}

// latencies returns the per-request latency in ms from the due time;
// a failed or refused request counts as missing every latency limit
// (+Inf).
func latencies(out []outcome) []float64 {
	ms := make([]float64, len(out))
	for i, o := range out {
		if o.err != nil {
			ms[i] = math.Inf(1)
			continue
		}
		ms[i] = durMS(o.done.Sub(o.due))
	}
	return ms
}

// lags returns how late the dispatcher released each request, in ms.
func lags(out []outcome) []float64 {
	ms := make([]float64, len(out))
	for i, o := range out {
		ms[i] = durMS(o.queued.Sub(o.due))
	}
	return ms
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// which it sorts in place; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// rankIndex is the 0-based nearest-rank index of quantile p in n
// sorted samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p·n on an exact rank from rounding up past it.
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest percentile of n samples that has at
// least ten samples beyond it, so a tail figure never rests on a
// handful of requests; the median when even that has fewer.
func tailQuantile(n int) float64 {
	for _, p := range tailQuantiles {
		if n-1-rankIndex(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}
