package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/httpserve"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// workload is one traffic mix the benchmark drives matchd with. Each
// exists to stress a different layer; the README records why.
type workload struct {
	name string
	why  string
	// Corpus shape: tenants × personals per tenant × schemas per tenant.
	tenants, personals, schemas int
	delta                       float64
	specs                       []string
	// rate is the open-loop read rate in requests per second.
	rate float64
	// novel makes every measured request carry a never-seen personal
	// schema (the cold path); the tenants' own personals only warm up.
	novel bool
	// writeRate is the full-repository PUT rate beside the reads, on a
	// connection of its own (0: the reads run alone).
	writeRate float64
	// puts is how many PUTs a read-only workload times, one after
	// another, on an idle spare daemon after each load cycle. A count,
	// not a share of the run: on a 2-vCPU Xeon VM one PUT takes about
	// 12 ms on fleet-mix and 180 ms on the 1300-schema tenant.
	puts int
}

var allSpecs = []string{"exhaustive", "parallel", "beam:16", "topk:0.035", "clustered"}

// bigSchemas is the size of the one-tenant repositories. The warm set
// fills the tenant's scoring memo with one entry per distinct name pair,
// and the memo's 64 shard maps all double their tables at about 229 000
// entries, a 10 MiB step in the heap. At 1200 schemas the seeds scatter
// across that step (222 000–285 000 entries); at 1300 every seed tried
// lands above it (242 000–314 000), so setup_heap_mb measures the
// program, not the seed.
const bigSchemas = 1300

// workloads is the benchmark's fixed list; BENCHMARK.json names the
// same four.
var workloads = []workload{
	{
		name: "fleet-mix", why: "many small warm tenants: wire, HTTP and admission costs show, cost tables and kernels sit idle",
		tenants: 6, personals: 3, schemas: 60, delta: 0.4, specs: allSpecs, rate: 300, puts: 8,
	},
	{
		name: "big-repo", why: "one 1300-schema tenant, warm: search and answer-set size dominate",
		tenants: 1, personals: 3, schemas: bigSchemas, delta: 0.3, specs: allSpecs, rate: 60, puts: 3,
	},
	{
		name: "novel-personals", why: "every request a never-seen personal: the cold path through cost tables and kernels",
		tenants: 1, personals: 3, schemas: bigSchemas, delta: 0.2,
		specs: []string{"topk:0.035", "beam:16", "clustered"}, rate: 30, novel: true, puts: 3,
	},
	{
		name: "churn", why: "full-repository PUTs beside reads on the same tenants: the update path",
		tenants: 2, personals: 3, schemas: 600, delta: 0.3, specs: allSpecs, rate: 40, writeRate: 4,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is one workload's generated world: the tenants with their
// personals, repositories and planted truth.
type corpus struct {
	w     workload
	seed  uint64
	fleet []*synth.Tenant
	// wire holds each tenant's personals in wire form, built once so the
	// load generator does not pay the conversion per request.
	wire [][]*httpserve.Schema
}

func newCorpus(w workload, seed uint64) (*corpus, error) {
	cfg := synth.DefaultConfig(seed)
	cfg.NumSchemas = w.schemas
	fleet, err := synth.GenerateTenants(seed, w.tenants, w.personals, cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{w: w, seed: seed, fleet: fleet, wire: make([][]*httpserve.Schema, len(fleet))}
	for ti, tn := range fleet {
		for _, p := range tn.Personals() {
			c.wire[ti] = append(c.wire[ti], httpserve.WireSchema(p))
		}
	}
	return c, nil
}

// writeXML writes one <tenant>.xml per tenant into dir, the layout
// matchd -corpus reads.
func (c *corpus) writeXML(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tn := range c.fleet {
		f, err := os.Create(filepath.Join(dir, tn.Name+".xml"))
		if err != nil {
			return err
		}
		if err := xmlschema.WriteRepository(f, tn.Repo()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// request is one entry of a workload's request schedule.
type request struct {
	tenant   int
	personal int // index into the tenant's personals; -1 for a novel personal
	spec     int // index into workload.specs
	// novel is the never-seen personal of a novel-personals request.
	novel *xmlschema.Schema
	wire  *httpserve.Schema
}

// schedule deals requests from the seed. Requests come in blocks that
// hold every (tenant, personal, spec) combination once, in a seeded
// order, so each phase sees the same mix whatever its length. Novel
// requests draw a fresh personal per index instead.
type schedule struct {
	c      *corpus
	combos [][3]int
}

func newSchedule(c *corpus) *schedule {
	s := &schedule{c: c}
	if c.w.novel {
		for si := range c.w.specs {
			s.combos = append(s.combos, [3]int{0, -1, si})
		}
		return s
	}
	for ti := range c.fleet {
		for pi := range c.fleet[ti].Personals() {
			for si := range c.w.specs {
				s.combos = append(s.combos, [3]int{ti, pi, si})
			}
		}
	}
	return s
}

// at returns request i. Novel requests of different indexes never
// share a personal.
func (s *schedule) at(i int) (request, error) {
	block := i / len(s.combos)
	perm := stats.NewRNG(s.c.seed ^ uint64(block)*0x9e3779b97f4a7c15).Perm(len(s.combos))
	cb := s.combos[perm[i%len(s.combos)]]
	r := request{tenant: cb[0], personal: cb[1], spec: cb[2]}
	if r.personal >= 0 {
		r.wire = s.c.wire[r.tenant][r.personal]
		return r, nil
	}
	p, err := novelPersonal(s.c.seed, uint64(i))
	if err != nil {
		return request{}, err
	}
	r.novel, r.wire = p, httpserve.WireSchema(p)
	return r, nil
}

// novelPersonal builds the never-seen personal schema number id: a
// random 3–6 element schema over the synonym vocabulary with half of
// its element names given a one-character edit plus an id suffix.
// Without the edit the engine memo already holds nearly every name
// pair and the workload would not be cold.
func novelPersonal(seed, id uint64) (*xmlschema.Schema, error) {
	rng := stats.NewRNG(seed ^ id ^ 0x6e6f76656c) // "novel"
	base, err := synth.RandomPersonal(seed*1_000_003+id, 3+rng.Intn(4))
	if err != nil {
		return nil, err
	}
	suffix := strconv.FormatUint(id, 36)
	var rebuild func(e *xmlschema.Element) *xmlschema.Element
	rebuild = func(e *xmlschema.Element) *xmlschema.Element {
		name := e.Name
		if rng.Bool(0.5) {
			b := []byte(name)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			name = string(b) + suffix
		}
		out := xmlschema.NewTypedElement(name, e.Type)
		for _, ch := range e.Children {
			out.Add(rebuild(ch))
		}
		return out
	}
	return xmlschema.NewSchema(fmt.Sprintf("novel-%d-%d", seed, id), rebuild(base.Root()))
}
