package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},     // nothing has ten beyond it: the median
		{20, 0.5},    // p50 leaves exactly ten
		{99, 0.5},    // p90 would leave nine
		{100, 0.9},   // p90 leaves ten
		{999, 0.9},   // p99 would leave nine
		{1000, 0.99}, // p99 leaves ten
		{10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// The rule itself: at least ten samples lie beyond the chosen rank.
		if tc.n >= 20 {
			if beyond := tc.n - 1 - rankIndex(tc.n, tailQuantile(tc.n)); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, 100*tailQuantile(tc.n))
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%g = %v, want %v", 100*p, got, want)
		}
	}
	// A failed request is +Inf and lands above every finite latency.
	if got := percentile([]float64{1, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("failed request not counted as missing the limit: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should be NaN")
	}
}

// TestOpenLoopChargesStalls drives a fake server that stalls one
// request for 50 ms. The open loop must keep releasing requests on
// schedule, and the requests queued behind the stall must be charged
// the wait, since latency runs from the due time.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 50 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := srv.Client()
	out := openLoop(12, 1, 200, func(_, i int) error {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})
	lat, lag := latencies(out), lags(out)
	if lat[2] < durMS(stall) {
		t.Errorf("stalled request latency %.1f ms < %v", lat[2], stall)
	}
	// Request 3 was due 5 ms after the stalled one and waited for it.
	if lat[3] < durMS(stall)-10 {
		t.Errorf("request behind the stall charged only %.1f ms", lat[3])
	}
	// The dispatcher itself never waited on the server.
	if lag[3] > durMS(stall)/2 {
		t.Errorf("generator ran %.1f ms late: it waited on the stalled server", lag[3])
	}
	if n := countFailed(out); n != 0 {
		t.Errorf("%d requests failed", n)
	}
}

func TestClosedLoopCounts(t *testing.T) {
	var calls atomic.Int64
	ok, bad, started := closedLoop(2, 30*time.Millisecond, func(w, i int) error {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		if i%5 == 0 {
			return fmt.Errorf("refused")
		}
		return nil
	})
	if started != int(calls.Load()) || ok+bad > started || ok == 0 || bad == 0 {
		t.Errorf("ok %d bad %d started %d calls %d", ok, bad, started, calls.Load())
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, rel := spread(xs)
	if med != 5.5 || math.Abs(rel-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", med, rel)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if med, rel := spread([]float64{4, 1, 2}); med != 2 || rel != 1.5 {
		t.Errorf("spread of three = %v, %v", med, rel)
	}
}
