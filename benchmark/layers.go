package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bounds"
	"repro/internal/candindex"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/httpserve"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/similarity"
	"repro/internal/store"
	"repro/internal/xmlschema"
	"repro/match"
)

// ladderSample is how many schedule entries the per-layer run replays
// per round.
const ladderSample = 16

// traceRun is the per-layer run. A shortened open loop on the booted
// daemon yields what only the wire shows (queue waits, memo traffic,
// generator lag); then the daemon stops and an in-process ladder times
// the public entry point of every layer on a fixed sample of the
// workload's requests, round after round until the time is up. No
// tracing runs inside the program: every span is taken from outside,
// around one call.
func (b *bench) traceRun() error {
	total := time.Duration(b.p.seconds * float64(time.Second))
	openD := total * 2 / 5
	if err := b.bootServing(); err != nil {
		return err
	}
	before, err := b.memoStats()
	if err != nil {
		return err
	}
	res, err := b.load(newWritePlan(b.c), 1, openD, 0, nil)
	if err != nil {
		return err
	}
	after, err := b.memoStats()
	if err != nil {
		return err
	}
	if err := b.stopDaemon(); err != nil {
		b.rep.fail("drain: %v", err)
	}
	if b.w.novel {
		if err := b.verifySample(); err != nil {
			return err
		}
	}
	lat := latencies(res.reads)
	e2eP50 := percentile(lat, 0.5)
	d := after.Sub(before)
	hit := 1.0 // no lookups: nothing missed
	if n := d.Hits + d.Misses; n > 0 {
		hit = float64(d.Hits) / float64(n)
	}
	b.rep.add("server.queue_wait_p90_ms", percentile(b.queueNs, 0.9)/1e6, "ms")
	b.rep.add("engine.hit_rate", hit, "ratio")
	b.rep.add("engine.entries", float64(d.Entries), "count")
	b.rep.add("loadgen.lag_tail_ms", lagTail(res.reads), "ms")
	b.rep.add("loadgen.sent", float64(len(res.reads)), "count")
	b.rep.add("loadgen.completed", float64(len(res.reads)-countFailed(res.reads)), "count")
	q := tailQuantile(len(lat))
	b.rep.add("client.tail_ms", percentile(lat, q), "ms")
	b.rep.note("client.tail_ms is p%g over %d requests", 100*q, len(lat))

	l, err := newLadder(b)
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.run(total - openD); err != nil {
		return err
	}
	l.report(b.rep)
	b.rep.add("unattributed_ms", e2eP50-l.p50("http.loopback_ms"), "ms")
	return nil
}

// memoStats sums the scoring-memo counters of every tenant.
func (b *bench) memoStats() (engine.Stats, error) {
	cl := httpserve.NewClient(b.d.addr, "")
	defer cl.Close()
	var sum engine.Stats
	for _, tn := range b.c.fleet {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		ts, err := cl.TenantStats(ctx, tn.Name)
		cancel()
		if err != nil {
			return sum, err
		}
		sum.Hits += ts.Cache.Hits
		sum.Misses += ts.Cache.Misses
		sum.Entries += ts.Cache.Entries
	}
	return sum, nil
}

// ladder is the in-process replica of matchd the per-layer run times:
// the same server, handler and client stack over the same corpus,
// with the same defaults.
type ladder struct {
	b      *bench
	srv    *match.Server
	h      *httpserve.Handler
	hs     *http.Server
	served chan error
	cl     *httpserve.Client
	sample []request
	plan   *writePlan
	// Update layer state: the store the diffs are appended to and the
	// snapshot lineage they extend.
	st     *store.Store
	snaps  []*xmlschema.Snapshot
	bounds []bounds.Input
	novel  uint64 // fresh-personal counter

	ms map[string][]float64 // per-call samples by metric
	// Counters summed over the run.
	yielded, candidates int
	pruned, pairs       int64
	kernelNs, kernelN   float64
}

func newLadder(b *bench) (*ladder, error) {
	l := &ladder{b: b, ms: map[string][]float64{}, plan: newWritePlan(b.c)}
	repos, err := l.readCorpus()
	if err != nil {
		return nil, err
	}
	// matchd's stack: default server options, a tracer that samples
	// nothing, default handler limits.
	l.srv = match.NewServer()
	for ti, tn := range b.c.fleet {
		if err := l.srv.AddTenant(tn.Name, repos[ti]); err != nil {
			l.srv.Close()
			return nil, err
		}
	}
	l.h = httpserve.New(l.srv, httpserve.Config{Tracer: obs.New(obs.Config{Slow: 250 * time.Millisecond})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.srv.Close()
		return nil, err
	}
	l.hs = &http.Server{Handler: l.h}
	l.served = make(chan error, 1)
	go func() { l.served <- l.hs.Serve(ln) }()
	l.cl = httpserve.NewClient(ln.Addr().String(), "")
	if err := l.warm(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() {
	l.cl.Close()
	_ = l.hs.Close() // the listener error, if any, is already moot
	<-l.served
	l.srv.Close()
}

// readCorpus reads the corpus matchd booted from.
func (l *ladder) readCorpus() ([]*xmlschema.Repository, error) {
	repos := make([]*xmlschema.Repository, len(l.b.c.fleet))
	for ti, tn := range l.b.c.fleet {
		f, err := os.Open(filepath.Join(l.b.p.work, "corpus", tn.Name+".xml"))
		if err != nil {
			return nil, err
		}
		repos[ti], err = xmlschema.ReadRepository(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return repos, nil
}

// warm builds what a warm daemon holds before the ladder times it:
// every session of the warm set, in process and through the handler,
// the sharded searcher, the update-layer store, and the bounds inputs.
func (l *ladder) warm() error {
	c, ctx := l.b.c, context.Background()
	for ti, tn := range c.fleet {
		svc, err := l.srv.Service(tn.Name)
		if err != nil {
			return err
		}
		for pi, p := range tn.Personals() {
			var exh *matching.AnswerSet
			for _, ns := range searchSpecs { // exhaustive first, for the bounds
				spec := ns[1]
				res, err := l.srv.Match(ctx, tn.Name, match.Request{Personal: p, Delta: c.w.delta, Matcher: spec})
				if err != nil {
					return fmt.Errorf("warm %s %s: %w", tn.Name, spec, err)
				}
				if _, err := l.cl.Match(ctx, tn.Name, &httpserve.MatchRequest{Personal: c.wire[ti][pi], Delta: c.w.delta, Matcher: spec}); err != nil {
					return fmt.Errorf("warm %s %s over loopback: %w", tn.Name, spec, err)
				}
				if spec == "exhaustive" {
					exh = res.Set
				} else if exh != nil && !isExhaustive(spec) {
					truth := eval.NewTruth(tn.Scenario.TruthKeys(pi))
					l.bounds = append(l.bounds, boundsInput(exh, res.Set, truth, thresholdsUpTo(svc.Thresholds(), c.w.delta)))
				}
			}
		}
	}
	for i := 0; i < ladderSample; i++ {
		rq, err := l.b.sched.at(i)
		if err != nil {
			return err
		}
		l.sample = append(l.sample, rq)
	}
	var err error
	if l.st, err = store.Open(filepath.Join(l.b.p.work, "ladder-store"), store.Options{}); err != nil {
		return err
	}
	for _, tn := range c.fleet {
		snap, err := xmlschema.NewSnapshot(tn.Repo())
		if err != nil {
			return err
		}
		if err := l.st.Tenant(tn.Name).SaveBase(snap.Version(), tn.Repo()); err != nil {
			return err
		}
		l.snaps = append(l.snaps, snap)
	}
	return nil
}

// personal returns the schema request rq carries, in process and on
// the wire. A novel request gets a never-seen personal on every call,
// so each layer pays the cold path the workload exists for.
func (l *ladder) personal(rq request) (*xmlschema.Schema, *httpserve.Schema, error) {
	if rq.novel == nil {
		return l.b.c.fleet[rq.tenant].Personals()[rq.personal], rq.wire, nil
	}
	l.novel++
	p, err := novelPersonal(l.b.p.seed, 1<<40+l.novel)
	if err != nil {
		return nil, nil, err
	}
	return p, httpserve.WireSchema(p), nil
}

func (l *ladder) since(name string, start time.Time, unit time.Duration) {
	l.ms[name] = append(l.ms[name], float64(time.Since(start))/float64(unit))
}

// run replays the sample through every layer, one round after another,
// until d is spent (at least one round).
func (l *ladder) run(d time.Duration) error {
	end := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		for _, step := range []func() error{l.wire, l.search, l.costTables, l.kernels, l.boot} {
			if err := step(); err != nil {
				return err
			}
		}
		if err := l.update(round); err != nil {
			return err
		}
		for _, in := range l.bounds {
			start := time.Now()
			if _, err := bounds.Incremental(in); err != nil {
				return err
			}
			l.since("bounds.incremental_us", start, time.Microsecond)
		}
	}
	return nil
}

// wire times each request down the serving stack: Service.Match,
// Server.Match, Handler.ServeHTTP into a recorder, and Client.Match
// over one loopback connection, plus the codec steps between them.
func (l *ladder) wire() error {
	ctx, w := context.Background(), l.b.w
	for _, rq := range l.sample {
		tenant, spec := l.b.c.fleet[rq.tenant].Name, w.specs[rq.spec]
		svc, err := l.srv.Service(tenant)
		if err != nil {
			return err
		}
		p, _, err := l.personal(rq)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := svc.Match(ctx, match.Request{Personal: p, Delta: w.delta, Matcher: spec}); err != nil {
			return err
		}
		l.since("service.match_ms", start, time.Millisecond)

		if p, _, err = l.personal(rq); err != nil {
			return err
		}
		start = time.Now()
		if _, err := l.srv.Match(ctx, tenant, match.Request{Personal: p, Delta: w.delta, Matcher: spec}); err != nil {
			return err
		}
		l.since("server.match_ms", start, time.Millisecond)

		_, wp, err := l.personal(rq)
		if err != nil {
			return err
		}
		body, err := json.Marshal(&httpserve.MatchRequest{Personal: wp, Delta: w.delta, Matcher: spec})
		if err != nil {
			return err
		}
		start = time.Now()
		dec, err := httpserve.DecodeMatchRequest(bytes.NewReader(body), 0)
		if err == nil {
			_, err = dec.Personal.Build()
		}
		if err != nil {
			return err
		}
		l.since("httpserve.decode_us", start, time.Microsecond)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/match/"+tenant, bytes.NewReader(body))
		start = time.Now()
		l.h.ServeHTTP(rec, req)
		l.since("httpserve.handler_ms", start, time.Millisecond)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: %d %s", rec.Code, rec.Body)
		}
		l.ms["httpserve.resp_bytes"] = append(l.ms["httpserve.resp_bytes"], float64(rec.Body.Len()))
		var resp httpserve.MatchResponse
		start = time.Now()
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		l.since("client.decode_us", start, time.Microsecond)
		start = time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			return err
		}
		l.since("httpserve.encode_us", start, time.Microsecond)

		if _, wp, err = l.personal(rq); err != nil {
			return err
		}
		start = time.Now()
		if _, err := l.cl.Match(ctx, tenant, &httpserve.MatchRequest{Personal: wp, Delta: w.delta, Matcher: spec}); err != nil {
			return err
		}
		l.since("http.loopback_ms", start, time.Millisecond)
	}
	return nil
}

// searchSpecs are the matcher families the search layer times on every
// workload, by metric name.
var searchSpecs = [][2]string{
	{"matching.search_ms.exhaustive", "exhaustive"},
	{"matching.search_ms.parallel", "parallel"},
	{"matching.search_ms.beam", "beam:16"},
	{"matching.search_ms.topk", "topk:0.035"},
	{"matching.search_ms.clustered", "clustered"},
	{"matching.search_ms.parallel2", "parallel:2"},
	{"shard.search_ms.sharded2", "sharded:2"},
}

// search times Service.Problem and then each matcher family's search
// on that problem; the sample's own spec gives the answer counts.
func (l *ladder) search() error {
	ctx, w := context.Background(), l.b.w
	for _, rq := range l.sample {
		svc, err := l.srv.Service(l.b.c.fleet[rq.tenant].Name)
		if err != nil {
			return err
		}
		p, _, err := l.personal(rq)
		if err != nil {
			return err
		}
		start := time.Now()
		prob, err := svc.Problem(p)
		if err != nil {
			return err
		}
		l.since("service.problem_ms", start, time.Millisecond)
		for _, ns := range searchSpecs {
			m, err := svc.Matcher(ns[1])
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := m.MatchContext(ctx, prob, w.delta); err != nil {
				return err
			}
			l.since(ns[0], start, time.Millisecond)
		}
		m, err := svc.Matcher(w.specs[rq.spec])
		if err != nil {
			return err
		}
		sm, ok := m.(matching.StatsMatcher)
		if !ok {
			return fmt.Errorf("%s reports no search stats", w.specs[rq.spec])
		}
		set, st, err := sm.MatchStatsContext(ctx, prob, w.delta)
		if err != nil {
			return err
		}
		l.ms["matching.answers_per_req"] = append(l.ms["matching.answers_per_req"], float64(set.Len()))
		l.yielded += st.Yielded
		l.candidates += st.Candidates
	}
	return nil
}

// costTables times matching.NewProblem three ways: with a fresh memo
// (cold), with the tenant's warm memo, and through a candidate index
// at the workload's δ with a fresh memo; it also times building that
// index.
func (l *ladder) costTables() error {
	ix := map[int]*candindex.Index{}
	for _, rq := range l.sample {
		svc, err := l.srv.Service(l.b.c.fleet[rq.tenant].Name)
		if err != nil {
			return err
		}
		repo := svc.Repository()
		if ix[rq.tenant] == nil {
			start := time.Now()
			if ix[rq.tenant], err = candindex.Build(repo, candindex.Config{}); err != nil {
				return err
			}
			l.since("candindex.build_ms", start, time.Millisecond)
		}
		p, _, err := l.personal(rq)
		if err != nil {
			return err
		}
		cold := engine.New(nil)
		cfg := matching.DefaultConfig()
		cfg.Scorer = cold
		start := time.Now()
		if _, err := matching.NewProblem(p, repo, cfg); err != nil {
			return err
		}
		l.since("matching.cost_table_cold_ms", start, time.Millisecond)
		l.ms["similarity.pairs_per_req"] = append(l.ms["similarity.pairs_per_req"], float64(cold.Stats().Misses))

		cfg.Scorer = svc.Scorer()
		start = time.Now()
		if _, err := matching.NewProblem(p, repo, cfg); err != nil {
			return err
		}
		l.since("matching.cost_table_warm_ms", start, time.Millisecond)

		cfg.Scorer, cfg.Candidates, cfg.CandidateDelta = engine.New(nil), ix[rq.tenant], l.b.w.delta
		start = time.Now()
		prob, err := matching.NewProblem(p, repo, cfg)
		if err != nil {
			return err
		}
		l.since("matching.cost_table_filtered_ms", start, time.Millisecond)
		if cs, ok := prob.CandidateStats(); ok {
			l.pruned += cs.Pruned
			l.pairs += cs.Pairs
		}
	}
	return nil
}

// kernels times KernelSession.Similarity over the sample's personal
// names against every distinct name of their repositories, after one
// untimed pass that interns the profiles.
func (l *ladder) kernels() error {
	var personal []string
	repoNames := map[string]bool{}
	for _, rq := range l.sample {
		p, _, err := l.personal(rq)
		if err != nil {
			return err
		}
		personal = append(personal, p.Names()...)
		svc, err := l.srv.Service(l.b.c.fleet[rq.tenant].Name)
		if err != nil {
			return err
		}
		for _, s := range svc.Repository().Schemas() {
			for _, n := range s.Names() {
				repoNames[n] = true
			}
		}
	}
	names := make([]string, 0, len(repoNames))
	for n := range repoNames {
		names = append(names, n)
	}
	sort.Strings(names)
	ks := similarity.NewKernel(similarity.DefaultNameMetric()).Session()
	defer ks.Close()
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for _, a := range personal {
			for _, n := range names {
				kernelSink += ks.Similarity(a, n)
			}
		}
		if pass == 1 {
			l.kernelNs += float64(time.Since(start).Nanoseconds())
			l.kernelN += float64(len(personal) * len(names))
		}
	}
	return nil
}

// kernelSink keeps the compiler from dropping the timed kernel calls.
var kernelSink float64

// boot times reading the corpus and building each tenant's cluster
// index on a fresh service, summed over the tenants as a boot pays
// them.
func (l *ladder) boot() error {
	start := time.Now()
	repos, err := l.readCorpus()
	if err != nil {
		return err
	}
	l.since("xmlschema.read_corpus_ms", start, time.Millisecond)
	var total time.Duration
	for _, repo := range repos {
		svc, err := match.NewService(repo)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := svc.Index(); err != nil {
			return err
		}
		total += time.Since(start)
	}
	l.ms["clustered.index_build_ms"] = append(l.ms["clustered.index_build_ms"], durMS(total))
	return nil
}

// update times one PUT's path in pieces: encoding and decoding the
// repository body, Server.UpdateTenant with the diff the handler
// derives from such a body (every schema replaced, since a decoded
// body shares no schema with the snapshot), appending that diff to a
// tenant log, and loading the log back.
func (l *ladder) update(round int) error {
	pt, err := l.plan.next()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := xmlschema.WriteRepository(&buf, pt.repo); err != nil {
		return err
	}
	l.since("xmlschema.write_repo_ms", start, time.Millisecond)
	start = time.Now()
	repo, err := xmlschema.ReadRepository(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	l.since("xmlschema.read_repo_ms", start, time.Millisecond)
	replace := func(cur *xmlschema.Snapshot) (*xmlschema.Snapshot, error) { return cur.Replace(repo.Schemas()...) }
	start = time.Now()
	if err := l.srv.UpdateTenant(pt.tenant, replace); err != nil {
		return err
	}
	l.since("server.update_ms", start, time.Millisecond)
	next, err := replace(l.snaps[pt.ti])
	if err != nil {
		return err
	}
	diff := xmlschema.DiffSnapshots(l.snaps[pt.ti], next)
	ten := l.st.Tenant(pt.tenant)
	start = time.Now()
	if err := ten.AppendDiff(next, diff); err != nil {
		return err
	}
	l.since("store.append_diff_ms", start, time.Millisecond)
	l.snaps[pt.ti] = next
	start = time.Now()
	ts, err := ten.Load()
	if err != nil {
		return err
	}
	l.since("store.load_ms", start, time.Millisecond)
	if ts.Version() != next.Version() {
		return fmt.Errorf("round %d: store recovered version %d, want %d", round, ts.Version(), next.Version())
	}
	return nil
}

// p50 is the median of one metric's samples.
func (l *ladder) p50(name string) float64 { return median(l.ms[name]) }

// report adds every ladder metric in the declared order: medians of
// the per-call samples, self times as differences of adjacent layers'
// medians, and ratios of the summed counters.
func (l *ladder) report(rep *report) {
	derived := map[string]float64{
		"http.self_ms":                  l.p50("http.loopback_ms") - l.p50("httpserve.handler_ms"),
		"httpserve.self_ms":             l.p50("httpserve.handler_ms") - l.p50("server.match_ms"),
		"server.self_ms":                l.p50("server.match_ms") - l.p50("service.match_ms"),
		"matching.yield_ratio":          float64(l.yielded) / float64(max(1, l.candidates)),
		"candindex.pruned_frac":         float64(l.pruned) / float64(max(1, l.pairs)),
		"similarity.kernel_ns_per_pair": l.kernelNs / max(1, l.kernelN),
	}
	for _, d := range perLayer {
		if v, ok := derived[d.name]; ok {
			rep.add(d.name, v, d.unit)
		} else if _, ok := l.ms[d.name]; ok {
			rep.add(d.name, l.p50(d.name), d.unit)
		}
	}
	rep.note("per-layer figures are medians over %d calls each of a %d-request sample", len(l.ms["service.match_ms"]), len(l.sample))
}
