package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/httpserve"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/match"
)

// remoteRun bundles everything the wire-mode replay needs.
type remoteRun struct {
	target     string // "self" or a matchd address
	token      string
	adminToken string // admin bearer for churn PUTs
	fleet      []*synth.Tenant
	mix        []loadRequest
	delta      float64
	rate       float64
	churnRate  float64 // wire updates per second (0 = off)
	seed       uint64
	shards     int
	trace      bool // inline span traces + per-stage decomposition
	quiet      bool
	newServer  func() (*match.Server, error)
}

// runRemote replays the mix over the wire protocol, then replays the
// identical mix in process on an identically configured server and
// reports the serialization + transport overhead between the two.
//
// With target "self" the remote side is an in-process matchd listener
// over a loopback socket — pure wire overhead, no network or process
// variance. With an address the remote side is a running matchd whose
// corpus must come from schemagen with the same seed and fleet shape
// (both draw from synth.GenerateTenants, so the tenant names and
// personal schemas agree).
func runRemote(out io.Writer, rr remoteRun) error {
	addr := rr.target
	var cleanup func()
	if rr.target == "self" {
		if rr.adminToken == "" {
			rr.adminToken = "matchload-admin"
		}
		srv, err := rr.newServer()
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		// The admin surface (churn PUTs ride on it) is disabled unless
		// admin tokens are configured; serving stays open.
		cfg := httpserve.Config{
			Auth: &httpserve.AuthConfig{AdminTokens: []string{rr.adminToken}},
		}
		if rr.trace {
			// 100% sampling: every replayed request lands in the capture
			// rings, so the /debug/traces scrape below sees the replay.
			cfg.Tracer = obs.New(obs.Config{SampleRate: 1})
		}
		hs := &http.Server{Handler: httpserve.New(srv, cfg)}
		go hs.Serve(ln)
		addr = ln.Addr().String()
		cleanup = func() {
			hs.Close()
			srv.Close()
		}
		fmt.Fprintf(out, "remote: in-process listener on %s\n", addr)
	} else {
		fmt.Fprintf(out, "remote: matchd at %s\n", addr)
	}
	if cleanup != nil {
		defer cleanup()
	}

	cl := httpserve.NewClient(addr, rr.token)
	defer cl.Close()
	ctx := context.Background()

	// Wire warmup, mirroring warmFleet: one batched clustered request
	// per tenant makes every tenant resident and builds the sessions
	// the replay will hit.
	warmSpec := "clustered"
	if rr.shards > 0 {
		warmSpec = fmt.Sprintf("sharded:%d:clustered", rr.shards)
	}
	warmStart := time.Now()
	for _, tn := range rr.fleet {
		var items []httpserve.BatchItem
		for _, p := range tn.Personals() {
			items = append(items, httpserve.BatchItem{
				Tenant: tn.Name,
				MatchRequest: httpserve.MatchRequest{
					Personal: httpserve.WireSchema(p), Delta: rr.delta, Matcher: warmSpec,
				},
			})
		}
		resp, err := cl.MatchBatch(ctx, &httpserve.BatchRequest{Requests: items})
		if err != nil {
			return fmt.Errorf("warmup %s: %w", tn.Name, err)
		}
		for i, r := range resp.Results {
			if r.Error != nil {
				return fmt.Errorf("warmup %s/%d: %s: %s", tn.Name, i, r.Error.Code, r.Error.Message)
			}
		}
	}
	fmt.Fprintf(out, "warmup: all tenants resident over the wire in %s\n\n", time.Since(warmStart).Round(time.Millisecond))

	// Wire churn runs beside the replay, exactly like the in-process
	// mode: full-repository PUTs over the admin surface while queries
	// are in flight.
	var wch *wireChurner
	if rr.churnRate > 0 {
		admin := httpserve.NewClient(addr, rr.adminToken)
		defer admin.Close()
		wch = newWireChurner(admin, rr.fleet, rr.seed, rr.churnRate)
		go wch.run()
	}

	// Wire replay through the shared open loop.
	wireOutcomes, wireWall := replayMix(rr.mix, rr.rate, func(lr loadRequest) outcome {
		start := time.Now()
		res, err := cl.Match(ctx, lr.tenant, &httpserve.MatchRequest{
			Personal: httpserve.WireSchema(lr.personal),
			Delta:    rr.delta,
			Matcher:  lr.spec,
			Trace:    rr.trace,
		})
		oc := outcome{latency: time.Since(start)}
		if err != nil {
			oc.err = err
			oc.overloaded = httpserve.IsOverloaded(err)
			return oc
		}
		oc.trace = res.Trace
		if ss := res.Stats.Sharded; ss != nil {
			oc.sharded = true
			oc.merge = time.Duration(ss.MergeNs)
			for _, ps := range ss.PerShard {
				w := time.Duration(ps.WallNs)
				oc.shardSum += w
				if w > oc.shardMax {
					oc.shardMax = w
				}
			}
		}
		return oc
	})
	if wch != nil {
		if err := wch.halt(); err != nil {
			return err
		}
	}
	if err := reportReplay(out, wireOutcomes, wireWall, rr.rate); err != nil {
		return err
	}
	if rr.shards > 0 {
		reportFanout(out, rr.shards, wireOutcomes)
	}
	if rr.trace {
		if err := reportTraceStages(out, wireOutcomes); err != nil {
			return err
		}
		if rr.adminToken != "" {
			if err := scrapeTraces(ctx, out, addr, rr.adminToken); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(out, "traces: /debug/traces scrape skipped (no -remote-admin-token)")
		}
	}
	if wch != nil {
		fmt.Fprintln(out)
		if err := wch.report(ctx, out); err != nil {
			return err
		}
	}

	if !rr.quiet {
		fmt.Fprintln(out)
		w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "tenant\tresident\tpairsScored")
		for _, tn := range rr.fleet {
			ts, err := cl.TenantStats(ctx, tn.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%v\t%d\n", ts.Tenant, ts.Resident, ts.Cache.Misses)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	// Confirm the wire surface exposes a parseable metrics snapshot —
	// the serve-smoke contract rides on this line.
	metricsText, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	if !strings.Contains(metricsText, "matchd_match_requests_total") {
		return fmt.Errorf("metrics exposition missing matchd_match_requests_total")
	}
	fmt.Fprintf(out, "\nmetrics: scraped %d bytes of exposition text\n", len(metricsText))

	// Under churn there is no in-process reference to compare against:
	// the remote repositories diverged from the corpus the moment the
	// first PUT landed, so a local replay would measure a different
	// workload. The churn report above is the deliverable.
	if wch != nil {
		return nil
	}

	// In-process reference: the identical mix on an identically
	// configured, identically warmed server, one burst (the offered
	// rate shapes arrival, not service; the overhead comparison wants
	// pure service time on both sides).
	ref, err := rr.newServer()
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := warmFleet(ctx, ref, rr.fleet, rr.delta, rr.shards); err != nil {
		return err
	}
	localOutcomes, localWall := replayMix(rr.mix, rr.rate, func(lr loadRequest) outcome {
		start := time.Now()
		_, err := ref.Match(ctx, lr.tenant, match.Request{
			Personal: lr.personal, Delta: rr.delta, Matcher: lr.spec,
		})
		oc := outcome{latency: time.Since(start)}
		if err != nil {
			oc.err = err
			oc.overloaded = isOverloaded(err)
		}
		return oc
	})

	wireCompleted, _, wireLat, err := tallyOutcomes(wireOutcomes)
	if err != nil {
		return err
	}
	localCompleted, _, localLat, err := tallyOutcomes(localOutcomes)
	if err != nil {
		return err
	}
	if wireCompleted == 0 || localCompleted == 0 {
		return fmt.Errorf("overhead comparison needs completions on both sides (wire %d, local %d)", wireCompleted, localCompleted)
	}
	wireP50, localP50 := percentile(wireLat, 0.50), percentile(localLat, 0.50)
	wireP99, localP99 := percentile(wireLat, 0.99), percentile(localLat, 0.99)
	fmt.Fprintf(out, "\nwire overhead (identical mix, identically warmed servers):\n")
	fmt.Fprintf(out, "  remote     %s wall (%.1f req/s)  p50 %s  p99 %s\n",
		wireWall.Round(time.Millisecond), float64(wireCompleted)/wireWall.Seconds(), wireP50, wireP99)
	fmt.Fprintf(out, "  in-process %s wall (%.1f req/s)  p50 %s  p99 %s\n",
		localWall.Round(time.Millisecond), float64(localCompleted)/localWall.Seconds(), localP50, localP99)
	fmt.Fprintf(out, "  p50 overhead %s (serialization + transport per request)\n", (wireP50 - localP50).Round(time.Microsecond))
	return nil
}
