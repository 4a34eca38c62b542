// Wire churn mode: live tenant updates over the admin surface while
// the wire replay is in flight. The churner keeps a local mirror of
// every tenant's repository, applies the add → replace → remove cycle
// to the mirror, and ships each step as one full-repository PUT
// (Client.UpdateTenant) — the server's replaceAll diffing keeps every
// schema whose content is unchanged and so turns the PUT back into the
// minimal incremental update, which is exactly the production shape:
// the caller owns the desired state, the daemon owns the delta.

package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/httpserve"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// mirrorRepo is the churner's editable copy of one tenant repository:
// insertion-ordered names over a schema map, rebuilt into a fresh
// Repository for every PUT (published repositories are immutable).
type mirrorRepo struct {
	names   []string
	schemas map[string]*xmlschema.Schema
}

func newMirror(repo *xmlschema.Repository) *mirrorRepo {
	m := &mirrorRepo{schemas: make(map[string]*xmlschema.Schema, repo.Len())}
	for _, s := range repo.Schemas() {
		m.names = append(m.names, s.Name)
		m.schemas[s.Name] = s
	}
	return m
}

func (m *mirrorRepo) add(s *xmlschema.Schema) {
	m.names = append(m.names, s.Name)
	m.schemas[s.Name] = s
}

func (m *mirrorRepo) remove(name string) {
	delete(m.schemas, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			return
		}
	}
}

func (m *mirrorRepo) repo() (*xmlschema.Repository, error) {
	repo := xmlschema.NewRepository()
	for _, n := range m.names {
		if err := repo.Add(m.schemas[n]); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// wireChurner drives live updates against a remote matchd during the
// wire replay.
type wireChurner struct {
	cl    *httpserve.Client
	fleet []*synth.Tenant
	rng   *stats.RNG

	interarrival time.Duration
	stop         chan struct{}
	done         chan struct{}

	mirrors map[string]*mirrorRepo
	added   map[string][]string

	ops       int
	adds      int
	replaces  int
	removes   int
	latencies []time.Duration
	churned   map[string]bool
	err       error
}

// newWireChurner prepares a churner applying rate PUTs per second
// through cl (which must carry an admin token).
func newWireChurner(cl *httpserve.Client, fleet []*synth.Tenant, seed uint64, rate float64) *wireChurner {
	c := &wireChurner{
		cl:           cl,
		fleet:        fleet,
		rng:          stats.NewRNG(seed ^ 0x77697265), // "wire"
		interarrival: time.Duration(float64(time.Second) / rate),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		mirrors:      make(map[string]*mirrorRepo),
		added:        make(map[string][]string),
		churned:      make(map[string]bool),
	}
	for _, tn := range fleet {
		c.mirrors[tn.Name] = newMirror(tn.Repo())
	}
	return c
}

// run applies updates until halt, one per interarrival tick.
func (c *wireChurner) run() {
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
func (c *wireChurner) halt() error {
	close(c.stop)
	<-c.done
	return c.err
}

// step mutates one tenant's mirror (same add → replace → remove cycle
// as the in-process churner) and PUTs the whole mirror.
func (c *wireChurner) step() error {
	tn := c.fleet[c.ops%len(c.fleet)]
	op := c.ops
	c.ops++
	m := c.mirrors[tn.Name]
	kind := (op / len(c.fleet)) % 3
	if kind == 2 && len(c.added[tn.Name]) == 0 {
		kind = 1 // nothing churn-added to remove yet: replace instead
	}
	switch kind {
	case 0: // add a clone of a random schema under a fresh name
		donor := m.schemas[m.names[c.rng.Intn(len(m.names))]]
		name := fmt.Sprintf("churn%d", op)
		clone, err := donor.CloneAs(name)
		if err != nil {
			return err
		}
		m.add(clone)
		c.added[tn.Name] = append(c.added[tn.Name], name)
		c.adds++
	case 1: // replace a random schema with a perturbed clone
		victim := m.schemas[m.names[c.rng.Intn(len(m.names))]]
		clone, err := victim.CloneAs(victim.Name)
		if err != nil {
			return err
		}
		clone.ByID(c.rng.Intn(clone.Len())).Name += "x"
		m.schemas[clone.Name] = clone
		c.replaces++
	default: // retire the oldest churn-added schema
		name := c.added[tn.Name][0]
		m.remove(name)
		c.added[tn.Name] = c.added[tn.Name][1:]
		c.removes++
	}
	repo, err := m.repo()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := c.cl.UpdateTenant(context.Background(), tn.Name, repo); err != nil {
		return fmt.Errorf("wire churn update %d (%s): %w", op, tn.Name, err)
	}
	c.latencies = append(c.latencies, time.Since(start))
	c.churned[tn.Name] = true
	return nil
}

// report prints the wire-churn outcome: update counts, PUT round-trip
// latency, and per-tenant confirmation that the served version
// advanced once per landed update.
func (c *wireChurner) report(ctx context.Context, out io.Writer) error {
	fmt.Fprintf(out, "churn (wire): %d full-repository PUTs (%d add, %d replace, %d remove) across %d tenants, zero failures\n",
		c.ops, c.adds, c.replaces, c.removes, len(c.churned))
	if len(c.latencies) == 0 {
		return nil
	}
	mean := time.Duration(0)
	for _, d := range c.latencies {
		mean += d
	}
	mean /= time.Duration(len(c.latencies))
	fmt.Fprintf(out, "  update RTT  mean %s  p50 %s  max %s\n",
		mean.Round(time.Microsecond),
		percentile(c.latencies, 0.50), percentile(c.latencies, 1.00))

	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  tenant\tchurned\tversion")
	for _, tn := range c.fleet {
		ts, err := c.cl.TenantStats(ctx, tn.Name)
		if err != nil {
			return err
		}
		if c.churned[tn.Name] && ts.Version <= 1 {
			return fmt.Errorf("tenant %q: %d churn PUTs landed but the served version is still %d",
				tn.Name, c.ops, ts.Version)
		}
		fmt.Fprintf(w, "  %s\t%v\t%d\n", tn.Name, c.churned[tn.Name], ts.Version)
	}
	return w.Flush()
}
