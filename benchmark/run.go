package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/httpserve"
	"repro/internal/matching"
	"repro/internal/stats"
	"repro/internal/xmlschema"
	"repro/match"
)

// runParams configures one run of one workload.
type runParams struct {
	matchd  string // daemon binary
	work    string // scratch directory, emptied by the run
	seed    uint64
	seconds float64 // measured seconds
	trace   bool    // per-layer run instead of the end-to-end one
}

const (
	// loadCycles is how many times the load alternates an open-loop
	// window with a closed-loop one. Between cycles, while the serving
	// daemon idles, the run sets up a spare daemon or times PUTs on it.
	// A shared machine runs slow for seconds to minutes at a time;
	// spreading every measurement over the whole run keeps one slow
	// spell from landing on a single metric.
	loadCycles = 8
	// spareCycles is how many cycles each of the two spare daemons
	// lives through.
	spareCycles = loadCycles / 2
	// novelSample is how many novel-personals requests one run checks
	// against the reference (each check is a full uncached build).
	novelSample = 30
	// maxBody lifts matchd's request body limit above a 1300-schema
	// repository PUT (about 1.2 MB, over the 1 MiB default).
	maxBody        = "8388608"
	requestTimeout = 60 * time.Second
)

// connections is how many connections the benchmark drives matchd
// over: one per CPU, at most two, so the load shape does not change
// with the machine.
func connections() int { return min(runtime.NumCPU(), 2) }

// bench is the state of one run.
type bench struct {
	p     runParams
	w     workload
	c     *corpus
	sched *schedule
	rep   *report
	d     *daemon // the serving daemon
	store string  // its store directory

	// refs[tenant][personal] is the reference answer set over the
	// generated repositories.
	refs [][]*matching.AnswerSet
	// setups and setupHeap hold, per boot, the seconds from exec to the
	// warm set's answers and the daemon's live heap (MiB) then; updates
	// holds the PUT latencies timed on idle spare daemons.
	setups, setupHeap, updates []float64
	spare                      *spare // the set-up daemon between cycles, if any

	mu sync.Mutex
	// warm[tenant][personal][spec] is the verified digest of the warm
	// answers every repeat of that request must match while checkWarm.
	warm      [][][]uint64
	checkWarm bool
	queueNs   []float64
	sampled   map[int][]httpserve.Answer // novel requests kept for the verifier
	sampleSet map[int]bool
}

// runWorkload runs w once: the end-to-end run, or with p.trace the
// per-layer one.
func runWorkload(w workload, p runParams) (*report, error) {
	if err := os.RemoveAll(p.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.work)
	c, err := newCorpus(w, p.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{p: p, w: w, c: c, sched: newSchedule(c), rep: &report{workload: w.name}}
	defer func() {
		if b.d != nil {
			b.d.kill()
		}
		if b.spare != nil {
			b.spare.d.kill()
		}
	}()
	if err := c.writeXML(filepath.Join(p.work, "corpus")); err != nil {
		return nil, err
	}
	if b.refs, err = references(c, nil); err != nil {
		return nil, err
	}
	if p.trace {
		err = b.traceRun()
	} else {
		err = b.e2eRun()
	}
	if err != nil {
		return nil, err
	}
	return b.rep, nil
}

// references computes the reference answer set of every tenant
// personal over the given repositories (nil: the generated ones).
func references(c *corpus, repos []*xmlschema.Repository) ([][]*matching.AnswerSet, error) {
	out := make([][]*matching.AnswerSet, len(c.fleet))
	for ti, tn := range c.fleet {
		repo := tn.Repo()
		if repos != nil {
			repo = repos[ti]
		}
		for _, p := range tn.Personals() {
			ref, err := referenceSet(p, repo, c.w.delta)
			if err != nil {
				return nil, err
			}
			out[ti] = append(out[ti], ref)
		}
	}
	return out, nil
}

// boot starts a daemon on the corpus with a fresh store named name,
// serves the warm set — every (tenant, personal, spec) once, in one
// batch — and verifies it. It records the set-up: the seconds from
// exec to the warm set's answers (every tenant resident and every
// session built) and the daemon's live heap at that point.
func (b *bench) boot(name string) (*daemon, string, error) {
	store := filepath.Join(b.p.work, name)
	d, err := startDaemon(b.p.matchd, b.p.work, []string{
		"-corpus", filepath.Join(b.p.work, "corpus"), "-store-dir", store,
		"-admin-token", adminToken, "-max-body", maxBody, "-pprof",
	})
	if err != nil {
		return nil, "", err
	}
	cl := httpserve.NewClient(d.addr, "")
	defer cl.Close()
	var items []httpserve.BatchItem
	var keys [][3]int
	for ti, tn := range b.c.fleet {
		for pi := range tn.Personals() {
			for si, spec := range b.w.specs {
				items = append(items, httpserve.BatchItem{Tenant: tn.Name, MatchRequest: httpserve.MatchRequest{
					Personal: b.c.wire[ti][pi], Delta: b.w.delta, Matcher: spec,
				}})
				keys = append(keys, [3]int{ti, pi, si})
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	resp, err := cl.MatchBatch(ctx, &httpserve.BatchRequest{Requests: items})
	secs := time.Since(d.started).Seconds()
	b.rep.attempted += len(items)
	if err != nil {
		d.kill()
		return nil, "", fmt.Errorf("warm set: %w", err)
	}
	heap, err := d.liveHeapMiB()
	if err != nil {
		d.kill()
		return nil, "", err
	}
	b.setups = append(b.setups, secs)
	b.setupHeap = append(b.setupHeap, heap)
	b.warm = make([][][]uint64, len(b.c.fleet))
	for ti := range b.warm {
		b.warm[ti] = make([][]uint64, b.w.personals)
		for pi := range b.warm[ti] {
			b.warm[ti][pi] = make([]uint64, len(b.w.specs))
		}
	}
	for k, r := range resp.Results {
		ti, pi, si := keys[k][0], keys[k][1], keys[k][2]
		if r.Error != nil {
			b.rep.fail("warm %s: %s: %s", b.c.fleet[ti].Name, r.Error.Code, r.Error.Message)
			continue
		}
		b.verifyWarm(ti, pi, si, r.Response.Answers)
	}
	return d, store, nil
}

// verifyWarm checks one warm answer list against the reference and,
// on the generated corpus, against the paper's bounds guarantee.
func (b *bench) verifyWarm(ti, pi, si int, answers []httpserve.Answer) {
	spec, tn := b.w.specs[si], b.c.fleet[ti]
	ref := b.refs[ti][pi]
	if err := checkAnswers(spec, answers, ref); err != nil {
		b.rep.fail("warm %s/%d: %v", tn.Name, pi, err)
		return
	}
	if truth := eval.NewTruth(tn.Scenario.TruthKeys(pi)); truth.Size() > 0 && !isExhaustive(spec) {
		if err := checkBounds(spec, answers, ref, truth, b.w.delta); err != nil {
			b.rep.fail("bounds %s/%d: %v", tn.Name, pi, err)
			return
		}
	}
	b.warm[ti][pi][si] = digest(answers)
}

// bootServing boots the daemon the load runs against.
func (b *bench) bootServing() error {
	d, store, err := b.boot("serving")
	if err != nil {
		return err
	}
	b.d, b.store = d, store
	b.checkWarm = true
	return nil
}

// spare is a set-up daemon beside the serving one, with the PUTs it
// has been sent.
type spare struct {
	d     *daemon
	store string
	plan  *writePlan
}

// between runs after load cycle k, while the serving daemon idles.
// After cycles 0 and spareCycles it times one more set-up on a fresh
// store; the spare daemon it boots then idles through the next
// spareCycles-1 cycles. On a read-only workload every gap times
// w.puts PUTs on the spare, so update latency is sampled across the
// whole run; before the spare drains, the run checks that it serves
// every PUT it was sent.
func (b *bench) between(k int) error {
	// The benchmark's own garbage from the cycle is collected now, not
	// while the gap is timed.
	runtime.GC()
	if k%spareCycles == 0 {
		d, store, err := b.boot("setup" + strconv.Itoa(k/spareCycles+1))
		if err != nil {
			return err
		}
		b.spare = &spare{d: d, store: store, plan: newWritePlan(b.c)}
	}
	s := b.spare
	if s == nil {
		return nil
	}
	if b.w.puts > 0 {
		ms, err := b.updatePhase(s.d.addr, s.plan, b.w.puts)
		if err != nil {
			return err
		}
		b.updates = append(b.updates, ms...)
		if k%spareCycles != spareCycles-1 {
			return nil
		}
		if _, err := b.verifyWrites(s.d.addr, s.plan); err != nil {
			return err
		}
	}
	b.spare = nil
	if err := s.d.stop(); err != nil {
		return err
	}
	return os.RemoveAll(s.store)
}

// recoveryBoot boots matchd on store alone (no corpus) and returns the
// seconds from exec to an exhaustive answer from every tenant, each
// checked against refs.
func (b *bench) recoveryBoot(store string, refs [][]*matching.AnswerSet) (float64, error) {
	d, err := startDaemon(b.p.matchd, b.p.work, []string{"-store-dir", store, "-admin-token", adminToken, "-max-body", maxBody})
	if err != nil {
		return 0, err
	}
	cl := httpserve.NewClient(d.addr, "")
	got := make([][]httpserve.Answer, len(b.c.fleet))
	var qerr error
	for ti := range b.c.fleet {
		if got[ti], qerr = b.query(cl, ti, 0, "exhaustive"); qerr != nil {
			break
		}
	}
	secs := time.Since(d.started).Seconds()
	cl.Close()
	if err := d.stop(); err != nil {
		b.rep.fail("drain after recovery: %v", err)
	}
	if qerr != nil {
		b.rep.fail("recovery: %v", qerr)
		return secs, nil
	}
	for ti, answers := range got {
		if err := checkAnswers("exhaustive", answers, refs[ti][0]); err != nil {
			b.rep.fail("recovered %s: %v", b.c.fleet[ti].Name, err)
		}
	}
	return secs, nil
}

// stopDaemon drains the serving daemon; an unclean exit is an error.
func (b *bench) stopDaemon() error {
	d := b.d
	b.d = nil
	return d.stop()
}

// phases splits the measured seconds: four fifths to the open loop,
// the rest to the closed loop.
func (b *bench) phases() (open, capacity time.Duration) {
	total := time.Duration(b.p.seconds * float64(time.Second))
	return total * 4 / 5, total / 5
}

// clients returns one httpserve client per read connection; each
// holds a single connection because its worker sends one request at a
// time.
func (b *bench) clients() []*httpserve.Client {
	n := connections()
	if b.w.writeRate > 0 {
		n = max(1, n-1) // the writes hold the other connection
	}
	out := make([]*httpserve.Client, n)
	for i := range out {
		out[i] = httpserve.NewClient(b.d.addr, "")
	}
	return out
}

// read sends request i of the schedule and checks the answer: against
// the warm digest while the repositories are unchanged, or keeps it
// for the verifier when i is a sampled novel request.
func (b *bench) read(cl *httpserve.Client, i int) error {
	rq, err := b.sched.at(i)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	tn := b.c.fleet[rq.tenant]
	resp, err := cl.Match(ctx, tn.Name, &httpserve.MatchRequest{Personal: rq.wire, Delta: b.w.delta, Matcher: b.w.specs[rq.spec]})
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queueNs = append(b.queueNs, float64(resp.Stats.QueueWaitNs))
	switch {
	case rq.novel != nil:
		if b.sampleSet[i] {
			b.sampled[i] = resp.Answers
		}
	case b.checkWarm:
		if digest(resp.Answers) != b.warm[rq.tenant][rq.personal][rq.spec] {
			b.rep.fail("request %d (%s/%d %s): answers differ from the verified warm set", i, tn.Name, rq.personal, b.w.specs[rq.spec])
		}
	}
	return nil
}

// openPhase runs the open-loop reads for d, schedule entries from
// on, and returns their outcomes and the daemon CPU time they took.
func (b *bench) openPhase(d time.Duration, from int) ([]outcome, time.Duration, error) {
	n := max(1, int(b.w.rate*d.Seconds()))
	cls := b.clients()
	defer closeAll(cls)
	cpu0, err := b.d.cpu()
	if err != nil {
		return nil, 0, err
	}
	out := openLoop(n, len(cls), b.w.rate, func(w, i int) error { return b.read(cls[w], from+i) })
	cpu1, err := b.d.cpu()
	if err != nil {
		return nil, 0, err
	}
	b.rep.attempted += len(out)
	b.rep.failed += countFailed(out)
	return out, cpu1 - cpu0, nil
}

// churnWrites sends puts open-loop at the workload's write rate over
// one connection of their own.
func (b *bench) churnWrites(puts []put) []outcome {
	pc := newPutClient(b.d.addr)
	defer pc.close()
	return openLoop(len(puts), 1, b.w.writeRate, func(_, i int) error {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		return pc.send(ctx, puts[i].tenant, puts[i].body)
	})
}

// updatePhase times n PUTs one after another on the otherwise idle
// daemon at addr; latency excludes dealing (and encoding) the next PUT.
func (b *bench) updatePhase(addr string, plan *writePlan, n int) ([]float64, error) {
	pc := newPutClient(addr)
	defer pc.close()
	var ms []float64
	for len(ms) < n {
		pt, err := plan.next()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		start := time.Now()
		err = pc.send(ctx, pt.tenant, pt.body)
		lat := time.Since(start)
		cancel()
		b.rep.attempted++
		if err != nil {
			b.rep.failed++
			b.rep.note("update %d: %v", len(ms), err)
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, durMS(lat))
	}
	return ms, nil
}

func closeAll(cls []*httpserve.Client) {
	for _, cl := range cls {
		cl.Close()
	}
}

func countFailed(out []outcome) int {
	n := 0
	for _, o := range out {
		if o.err != nil {
			n++
		}
	}
	return n
}

// firstErrors reports the first few request errors of a phase.
func (b *bench) firstErrors(phase string, out []outcome) {
	shown := 0
	for i, o := range out {
		if o.err != nil && shown < 3 {
			b.rep.note("%s request %d: %v", phase, i, o.err)
			shown++
		}
	}
}

// loadResult is what the load phases measured.
type loadResult struct {
	reads, writes []outcome
	cpu           time.Duration // daemon CPU over the open-loop windows
	openWindows   [][2]time.Time
	capOK, capBad int // closed loop: completed in its windows, failed
}

// load runs cycles of an open-loop window (openD over all cycles) and
// a closed-loop one (capD over all; none when 0), calling between(k)
// after cycle k while the daemon idles. A write workload's PUTs run
// beside each cycle on a connection of their own.
func (b *bench) load(plan *writePlan, cycles int, openD, capD time.Duration, between func(k int) error) (*loadResult, error) {
	openW, capW := openD/time.Duration(cycles), capD/time.Duration(cycles)
	nPuts := int(b.w.writeRate * (openD + capD).Seconds()) // spread over the cycles
	if b.w.novel {
		b.pickSample(int(b.w.rate * openW.Seconds()))
	}
	res := &loadResult{}
	next := 0 // schedule index; novel requests never repeat a personal
	for k := 0; k < cycles; k++ {
		var puts []put
		for len(puts) < nPuts*(k+1)/cycles-nPuts*k/cycles {
			pt, err := plan.next()
			if err != nil {
				return nil, err
			}
			puts = append(puts, pt)
		}
		var writes []outcome
		var wg sync.WaitGroup
		if len(puts) > 0 {
			b.checkWarm = false
			wg.Add(1)
			go func() {
				defer wg.Done()
				writes = b.churnWrites(puts)
			}()
		}
		start := time.Now()
		reads, cpu, err := b.openPhase(openW, next)
		if err != nil {
			wg.Wait()
			return nil, err
		}
		res.openWindows = append(res.openWindows, [2]time.Time{start, time.Now()})
		res.reads = append(res.reads, reads...)
		res.cpu += cpu
		next += len(reads)
		if capW > 0 {
			cls := b.clients()
			from := next
			ok, bad, started := closedLoop(len(cls), capW, func(w, i int) error { return b.read(cls[w], from+i) })
			closeAll(cls)
			res.capOK += ok
			res.capBad += bad
			b.rep.attempted += started
			next += started
		}
		wg.Wait()
		res.writes = append(res.writes, writes...)
		if between != nil {
			if err := between(k); err != nil {
				return nil, err
			}
		}
	}
	b.rep.attempted += len(res.writes)
	b.rep.failed += res.capBad + countFailed(res.writes)
	b.firstErrors("read", res.reads)
	b.firstErrors("write", res.writes)
	return res, nil
}

// inOpenWindow reports whether t fell inside one of the open-loop
// windows.
func (res *loadResult) inOpenWindow(t time.Time) bool {
	for _, w := range res.openWindows {
		if !t.Before(w[0]) && !t.After(w[1]) {
			return true
		}
	}
	return false
}

// e2eRun measures the end-to-end metrics. Set-up is timed three times:
// the serving daemon, and a spare daemon after cycles 0 and spareCycles
// of the load. Read-only workloads time their PUTs on the spares, warm
// and otherwise idle, after every cycle, so the serving daemon's
// answers never change. On churn, recovery is timed once, from the
// serving daemon's store after all the writes.
func (b *bench) e2eRun() error {
	openD, capD := b.phases()
	if err := b.bootServing(); err != nil {
		return err
	}
	plan := newWritePlan(b.c)
	res, err := b.load(plan, loadCycles, openD, capD, b.between)
	if err != nil {
		return err
	}
	reads, writeOut := res.reads, res.writes

	lat := latencies(reads)
	completed := len(reads) - countFailed(reads)
	b.rep.add("p50_ms", percentile(lat, 0.5), "ms")
	b.rep.add("p90_ms", percentile(lat, 0.9), "ms")
	b.rep.add("capacity_rps", float64(res.capOK)/capD.Seconds(), "1/s")
	for _, o := range writeOut {
		if o.err == nil && res.inOpenWindow(o.done) {
			completed++
		}
	}
	b.rep.add("cpu_ms_per_req", durMS(res.cpu)/float64(max(1, completed)), "ms")
	b.addTail("client", lat)
	// A late dispatch is charged to its request, so lag inflates latency
	// rather than hiding it; a generator that cannot keep the schedule
	// shows first at the tail, where the run is declared invalid.
	lag := lagTail(reads)
	b.rep.diag("loadgen.lag_tail_ms", lag, "ms")
	if p90 := percentile(lat, 0.9); lag > p90 {
		b.rep.fail("invalid run: the generator ran %.3f ms late at its tail, more than the %.3f ms p90", lag, p90)
	}

	wlat := b.updates
	if b.w.writeRate > 0 {
		wlat = latencies(writeOut)
	} else {
		b.rep.note("update_p50_ms is the median of %s ms, in the order sent", fmtList(wlat))
	}
	b.rep.add("update_p50_ms", percentile(wlat, 0.5), "ms")
	b.addTail("update", wlat)

	mrefs, err := b.verifyWrites(b.d.addr, plan)
	if err != nil {
		return err
	}
	rss, err := b.d.peakRSSMiB()
	if err != nil {
		return err
	}
	b.rep.diag("peak_rss_mb", rss, "MiB")
	if err := b.stopDaemon(); err != nil {
		b.rep.fail("drain: %v", err)
	}
	b.rep.add("setup_s", median(b.setups), "s")
	b.rep.add("setup_heap_mb", median(b.setupHeap), "MiB")
	b.rep.note("setup_s is the median of %s s; setup_heap_mb of %s MiB", fmtList(b.setups), fmtList(b.setupHeap))
	if b.w.writeRate > 0 {
		secs, err := b.recoveryBoot(b.store, mrefs)
		if err != nil {
			return err
		}
		b.rep.diag("recovery_s", secs, "s")
	}
	if b.w.novel {
		return b.verifySample()
	}
	return nil
}

// verifyWrites checks that the daemon at addr serves plan's mirror of
// every tenant and returns the references over that mirror.
func (b *bench) verifyWrites(addr string, plan *writePlan) ([][]*matching.AnswerSet, error) {
	repos, err := plan.repos()
	if err != nil {
		return nil, err
	}
	refs, err := references(b.c, repos)
	if err != nil {
		return nil, err
	}
	b.verifyAll(addr, plan, refs)
	return refs, nil
}

// verifyAll checks that every tenant serves its mirror: the version
// advanced once per PUT dealt to it, and every (tenant, personal,
// spec) answers as refs say.
func (b *bench) verifyAll(addr string, plan *writePlan, refs [][]*matching.AnswerSet) {
	cl := httpserve.NewClient(addr, "")
	defer cl.Close()
	for ti, tn := range b.c.fleet {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		ts, err := cl.TenantStats(ctx, tn.Name)
		cancel()
		n := len(b.c.fleet)
		want := uint64(1 + plan.dealt/n + b2i(ti < plan.dealt%n))
		switch {
		case err != nil:
			b.rep.fail("%s: stats: %v", tn.Name, err)
		case ts.Version != want:
			b.rep.fail("%s: version %d after the writes, want %d", tn.Name, ts.Version, want)
		}
		for pi := range tn.Personals() {
			for _, spec := range b.w.specs {
				answers, err := b.query(cl, ti, pi, spec)
				if err != nil {
					b.rep.fail("verify %s/%d %s: %v", tn.Name, pi, spec, err)
					continue
				}
				if err := checkAnswers(spec, answers, refs[ti][pi]); err != nil {
					b.rep.fail("after writes %s/%d: %v", tn.Name, pi, err)
				}
			}
		}
	}
}

// query sends one verification request.
func (b *bench) query(cl *httpserve.Client, ti, pi int, spec string) ([]httpserve.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	b.rep.attempted++
	resp, err := cl.Match(ctx, b.c.fleet[ti].Name, &httpserve.MatchRequest{Personal: b.c.wire[ti][pi], Delta: b.w.delta, Matcher: spec})
	if err != nil {
		return nil, err
	}
	return resp.Answers, nil
}

// pickSample chooses the seeded novel requests the verifier checks
// among the first n.
func (b *bench) pickSample(n int) {
	b.sampled = map[int][]httpserve.Answer{}
	b.sampleSet = map[int]bool{}
	rng := stats.NewRNG(b.p.seed ^ 0x73616d706c65) // "sample"
	for _, i := range rng.Perm(n)[:min(n, novelSample)] {
		b.sampleSet[i] = true
	}
}

// verifySample checks the kept novel answers against references built
// from the same never-seen personals.
func (b *bench) verifySample() error {
	idx := make([]int, 0, len(b.sampleSet))
	for i := range b.sampleSet {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		answers, ok := b.sampled[i]
		if !ok {
			continue // the request failed and was counted
		}
		rq, err := b.sched.at(i)
		if err != nil {
			return err
		}
		ref, err := referenceSet(rq.novel, b.c.fleet[rq.tenant].Repo(), b.w.delta)
		if err != nil {
			return err
		}
		if err := checkAnswers(b.w.specs[rq.spec], answers, ref); err != nil {
			b.rep.fail("novel request %d: %v", i, err)
		}
	}
	return nil
}

// lagTail is how late the generator released requests, at the
// highest percentile with ten samples beyond it.
func lagTail(out []outcome) float64 { return percentile(lags(out), tailQuantile(len(out))) }

// addTail reports the highest percentile with ten samples beyond it.
func (b *bench) addTail(layer string, lat []float64) {
	q := tailQuantile(len(lat))
	b.rep.diag(layer+".tail_ms", percentile(lat, q), "ms")
	b.rep.note("%s.tail_ms is p%g over %d requests", layer, 100*q, len(lat))
}

func isExhaustive(spec string) bool {
	sp, err := match.Parse(spec)
	return err == nil && sp.Exhaustive()
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, ", ")
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }
