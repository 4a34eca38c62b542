// Churn mode: live tenant updates interleaved with query traffic.
// With -churn-rate > 0 the replay runs a churner alongside the open
// loop, applying schema updates (add → replace → remove, round-robin
// across tenants) through Server.UpdateTenant while requests are in
// flight. The report then quantifies the two claims the versioned
// repository layer makes: incremental updates are far cheaper than
// rebuilding a tenant, and warm caches survive for everything an
// update did not touch.

package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
	"repro/match"
)

// churner drives live updates against the server during the replay.
type churner struct {
	srv   *match.Server
	fleet []*synth.Tenant
	rng   *stats.RNG

	interarrival time.Duration
	stop         chan struct{}
	done         chan struct{}

	// added tracks the churn-created schema names per tenant so the
	// remove step retires them instead of shrinking the original corpus.
	added map[string][]string

	ops       int
	adds      int
	replaces  int
	removes   int
	latencies []time.Duration
	churned   map[string]bool
	err       error
}

// newChurner prepares a churner applying rate updates per second.
func newChurner(srv *match.Server, fleet []*synth.Tenant, seed uint64, rate float64) *churner {
	return &churner{
		srv:          srv,
		fleet:        fleet,
		rng:          stats.NewRNG(seed ^ 0x636875726e), // "churn"
		interarrival: time.Duration(float64(time.Second) / rate),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		added:        make(map[string][]string),
		churned:      make(map[string]bool),
	}
}

// run applies updates until halt, one per interarrival tick.
func (c *churner) run() {
	defer close(c.done)
	tick := time.NewTicker(c.interarrival)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			if err := c.step(); err != nil {
				c.err = err
				return
			}
		}
	}
}

// halt stops the churner and waits for it to finish.
func (c *churner) halt() error {
	close(c.stop)
	<-c.done
	return c.err
}

// step applies one update to the next tenant, cycling add → replace →
// remove so the repositories keep their size over long runs. The op
// kind advances once per full round over the fleet — deriving both
// from the same counter would pin each tenant to a single kind
// whenever the fleet size divides by three.
func (c *churner) step() error {
	tn := c.fleet[c.ops%len(c.fleet)]
	op := c.ops
	c.ops++
	var (
		mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)
		onOK   func()
	)
	kind := (op / len(c.fleet)) % 3
	if kind == 2 && len(c.added[tn.Name]) == 0 {
		kind = 1 // nothing churn-added to remove yet: replace instead
	}
	switch kind {
	case 0: // add a clone of a random schema under a fresh name
		name := fmt.Sprintf("churn%d", op)
		mutate = func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			donor := snap.Schemas()[c.rng.Intn(snap.Len())]
			clone, err := donor.CloneAs(name)
			if err != nil {
				return nil, err
			}
			return snap.Add(clone)
		}
		onOK = func() {
			c.added[tn.Name] = append(c.added[tn.Name], name)
			c.adds++
		}
	case 1: // replace a random schema with a perturbed clone
		mutate = func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			victim := snap.Schemas()[c.rng.Intn(snap.Len())]
			clone, err := victim.CloneAs(victim.Name)
			if err != nil {
				return nil, err
			}
			// Rename one element before the clone enters the snapshot;
			// schemas are immutable only once published.
			clone.ByID(c.rng.Intn(clone.Len())).Name += "x"
			return snap.Replace(clone)
		}
		onOK = func() { c.replaces++ }
	default: // retire the oldest churn-added schema
		name := c.added[tn.Name][0]
		mutate = func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return snap.Remove(name)
		}
		onOK = func() {
			c.added[tn.Name] = c.added[tn.Name][1:]
			c.removes++
		}
	}
	start := time.Now()
	if err := c.srv.UpdateTenant(tn.Name, mutate); err != nil {
		return fmt.Errorf("churn update %d (%s): %w", op, tn.Name, err)
	}
	c.latencies = append(c.latencies, time.Since(start))
	c.churned[tn.Name] = true
	onOK()
	return nil
}

// report prints the churn outcome: update counts and incremental
// latency against the full-rebuild reference, then the post-update
// scoring table: the name pairs one clustered request per personal
// scored once all updates settled.
func (c *churner) report(ctx context.Context, out io.Writer, delta float64) error {
	fmt.Fprintf(out, "churn: %d live updates (%d add, %d replace, %d remove) across %d tenants, zero failures\n",
		c.ops, c.adds, c.replaces, c.removes, len(c.churned))
	if len(c.latencies) == 0 {
		return nil
	}
	mean := time.Duration(0)
	for _, d := range c.latencies {
		mean += d
	}
	mean /= time.Duration(len(c.latencies))
	fmt.Fprintf(out, "  incremental update  mean %s  p50 %s  max %s\n",
		mean.Round(time.Microsecond),
		percentile(c.latencies, 0.50), percentile(c.latencies, 1.00))

	// Full-rebuild reference: what one churned tenant would pay without
	// incremental maintenance — fresh service, cluster index, and cost
	// tables for every personal over its final snapshot.
	var churnedNames []string
	for name := range c.churned {
		churnedNames = append(churnedNames, name)
	}
	sort.Strings(churnedNames)
	ref := churnedNames[0]
	var refTenant *synth.Tenant
	for _, tn := range c.fleet {
		if tn.Name == ref {
			refTenant = tn
		}
	}
	svc, err := c.srv.Service(ref)
	if err != nil {
		return err
	}
	rebuildStart := time.Now()
	fullSvc, err := match.NewService(svc.Snapshot().Repository())
	if err != nil {
		return err
	}
	if _, err := fullSvc.Index(); err != nil {
		return err
	}
	for _, p := range refTenant.Personals() {
		if _, err := fullSvc.Problem(p); err != nil {
			return err
		}
	}
	rebuild := time.Since(rebuildStart)
	ratio := float64(rebuild) / float64(mean)
	fmt.Fprintf(out, "  full rebuild (%s)  %s — incremental is %.0fx cheaper\n",
		ref, rebuild.Round(time.Millisecond), ratio)

	// Post-update scoring: per tenant, the name pairs one fresh
	// clustered request per personal scored after all updates settled.
	fmt.Fprintln(out, "  post-update scoring:")
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  tenant\tchurned\tversion\tpairsScored")
	for _, tn := range c.fleet {
		svc, err := c.srv.Service(tn.Name)
		if err != nil {
			return err
		}
		before, _ := svc.CacheStats()
		var batch []match.BatchRequest
		for _, p := range tn.Personals() {
			batch = append(batch, match.BatchRequest{
				Tenant:  tn.Name,
				Request: match.Request{Personal: p, Delta: delta, Matcher: "clustered"},
			})
		}
		for i, r := range c.srv.MatchBatch(ctx, batch) {
			if r.Err != nil {
				return fmt.Errorf("recovery %s/%d: %w", tn.Name, i, r.Err)
			}
		}
		after, _ := svc.CacheStats()
		window := after.Sub(before)
		fmt.Fprintf(w, "  %s\t%v\t%d\t%d\n",
			tn.Name, c.churned[tn.Name], svc.Version(), window.Misses)
	}
	return w.Flush()
}
