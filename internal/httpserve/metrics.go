package httpserve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/match"
)

// metrics aggregates the HTTP layer's own counters. Everything here is
// monotone over the handler's lifetime (the /metrics test depends on
// it); point-in-time server and tenant state is read fresh from
// match.Server at scrape time instead of being cached here.
type metrics struct {
	inFlight atomic.Int64

	mu       sync.Mutex
	requests map[routeCode]int64
	seconds  map[string]float64 // per route, cumulative request time

	answers  atomic.Int64
	searches atomic.Int64 // successfully served match requests

	shardedRequests atomic.Int64
	shardWallNs     atomic.Int64 // summed per-shard work
	shardCriticalNs atomic.Int64 // summed slowest-shard walls
	shardMergeNs    atomic.Int64

	candRequests       atomic.Int64
	candPairs          atomic.Int64
	candPruned         atomic.Int64
	candSchemasSkipped atomic.Int64

	// httpDur holds one request-duration histogram per route (created
	// on first use under mu); the stage histograms are fixed — they are
	// fed from every served result, sampled or not, so p99 per stage is
	// observable from a scrape alone.
	httpDur      map[string]*obs.Histogram
	queueWait    *obs.Histogram
	sessionBuild *obs.Histogram
	baselineWait *obs.Histogram
	searchDur    *obs.Histogram
	shardCrit    *obs.Histogram
	mergeDur     *obs.Histogram
}

// stageHistograms lists the per-stage duration histograms in their
// exposition order, keyed by the value of the stage label.
func (m *metrics) stageHistograms() []struct {
	Stage string
	H     *obs.Histogram
} {
	return []struct {
		Stage string
		H     *obs.Histogram
	}{
		{"queue_wait", m.queueWait},
		{"session_build", m.sessionBuild},
		{"baseline_wait", m.baselineWait},
		{"search", m.searchDur},
		{"shard_critical", m.shardCrit},
		{"merge", m.mergeDur},
	}
}

type routeCode struct {
	route string
	code  int
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[routeCode]int64),
		seconds:      make(map[string]float64),
		httpDur:      make(map[string]*obs.Histogram),
		queueWait:    obs.NewHistogram(nil),
		sessionBuild: obs.NewHistogram(nil),
		baselineWait: obs.NewHistogram(nil),
		searchDur:    obs.NewHistogram(nil),
		shardCrit:    obs.NewHistogram(nil),
		mergeDur:     obs.NewHistogram(nil),
	}
}

// observe records one finished HTTP request.
func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[routeCode{route, code}]++
	m.seconds[route] += d.Seconds()
	h := m.httpDur[route]
	if h == nil {
		h = obs.NewHistogram(nil)
		m.httpDur[route] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// observeResult folds one successful matching result into the
// aggregated engine telemetry and the per-stage latency histograms.
func (m *metrics) observeResult(res *match.Result) {
	m.searches.Add(1)
	m.answers.Add(int64(res.Stats.Answers))
	m.queueWait.Observe(res.Stats.QueueWait)
	m.sessionBuild.Observe(res.Stats.SessionBuild)
	m.searchDur.Observe(res.Stats.Wall)
	if res.Stats.BaselineWait > 0 {
		m.baselineWait.Observe(res.Stats.BaselineWait)
	}
	if ss := res.Stats.Sharded; ss != nil {
		m.shardedRequests.Add(1)
		m.shardWallNs.Add(int64(ss.SumShardWall()))
		m.shardCriticalNs.Add(int64(ss.MaxShardWall()))
		m.shardMergeNs.Add(int64(ss.Merge))
		m.shardCrit.Observe(ss.MaxShardWall())
		m.mergeDur.Observe(ss.Merge)
	}
	if cs := res.Stats.Candidates; cs != nil {
		m.candRequests.Add(1)
		m.candPairs.Add(cs.Pairs)
		m.candPruned.Add(cs.Pruned)
		m.candSchemasSkipped.Add(int64(cs.SkippedSchemas))
	}
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promWriter accumulates one exposition; families are written with
// HELP/TYPE headers and deterministically ordered series so scrapes
// diff cleanly.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) family(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral and renders large counters exactly.
	_, p.err = fmt.Fprintf(p.w, "%s%s %g\n", name, labels, v)
}

// histogram emits one series of a histogram family: the cumulative
// le-buckets (including +Inf, which equals _count), the _sum, and the
// _count, with the le label appended after any series labels.
func (p *promWriter) histogram(name, labels string, s obs.HistogramSnapshot) {
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf(`le="%s"`, bound)
		}
		return fmt.Sprintf(`%s,le="%s"`, labels, bound)
	}
	for _, b := range s.Buckets {
		p.sample(name+"_bucket", le(fmt.Sprintf("%g", b.UpperBound)), float64(b.CumulativeCount))
	}
	p.sample(name+"_bucket", le("+Inf"), float64(s.Count))
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(s.Count))
}

// writeMetrics renders the full exposition: HTTP-layer counters, the
// server's admission snapshot, and per-tenant serving state.
func (h *Handler) writeMetrics(w io.Writer) error {
	p := &promWriter{w: w}
	m := h.met

	p.family("matchd_http_in_flight", "HTTP requests currently being served.", "gauge")
	p.sample("matchd_http_in_flight", "", float64(m.inFlight.Load()))

	m.mu.Lock()
	reqKeys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	reqVals := make([]int64, len(reqKeys))
	for i, k := range reqKeys {
		reqVals[i] = m.requests[k]
	}
	secRoutes := make([]string, 0, len(m.seconds))
	for r := range m.seconds {
		secRoutes = append(secRoutes, r)
	}
	sort.Strings(secRoutes)
	secVals := make([]float64, len(secRoutes))
	for i, r := range secRoutes {
		secVals[i] = m.seconds[r]
	}
	m.mu.Unlock()

	durRoutes := make([]string, 0, len(m.httpDur))
	durHists := make([]*obs.Histogram, 0, len(m.httpDur))
	m.mu.Lock()
	for r := range m.httpDur {
		durRoutes = append(durRoutes, r)
	}
	sort.Strings(durRoutes)
	for _, r := range durRoutes {
		durHists = append(durHists, m.httpDur[r])
	}
	m.mu.Unlock()

	p.family("matchd_http_requests_total", "HTTP requests served, by route and status code.", "counter")
	for i, k := range reqKeys {
		p.sample("matchd_http_requests_total",
			fmt.Sprintf(`route="%s",code="%d"`, escapeLabel(k.route), k.code), float64(reqVals[i]))
	}
	p.family("matchd_http_request_seconds_total", "Cumulative request handling time, by route.", "counter")
	for i, r := range secRoutes {
		p.sample("matchd_http_request_seconds_total",
			fmt.Sprintf(`route="%s"`, escapeLabel(r)), secVals[i])
	}
	p.family("matchd_http_request_duration_seconds", "End-to-end request latency distribution, by route.", "histogram")
	for i, r := range durRoutes {
		p.histogram("matchd_http_request_duration_seconds",
			fmt.Sprintf(`route="%s"`, escapeLabel(r)), durHists[i].Snapshot())
	}
	p.family("matchd_stage_duration_seconds", "Per-stage latency distribution of served matching requests.", "histogram")
	for _, sh := range m.stageHistograms() {
		p.histogram("matchd_stage_duration_seconds",
			fmt.Sprintf(`stage="%s"`, sh.Stage), sh.H.Snapshot())
	}

	p.family("matchd_match_requests_total", "Successfully served matching requests (single and batch items).", "counter")
	p.sample("matchd_match_requests_total", "", float64(m.searches.Load()))
	p.family("matchd_answers_total", "Answers returned across all served requests, before Limit truncation.", "counter")
	p.sample("matchd_answers_total", "", float64(m.answers.Load()))

	p.family("matchd_sharded_requests_total", "Served requests that ran scatter-gather sharded search.", "counter")
	p.sample("matchd_sharded_requests_total", "", float64(m.shardedRequests.Load()))
	p.family("matchd_shard_work_seconds_total", "Summed per-shard search work of sharded requests.", "counter")
	p.sample("matchd_shard_work_seconds_total", "", float64(m.shardWallNs.Load())/1e9)
	p.family("matchd_shard_critical_seconds_total", "Summed slowest-shard walls (the scatter critical path).", "counter")
	p.sample("matchd_shard_critical_seconds_total", "", float64(m.shardCriticalNs.Load())/1e9)
	p.family("matchd_shard_merge_seconds_total", "Summed answer-set merge time of sharded requests.", "counter")
	p.sample("matchd_shard_merge_seconds_total", "", float64(m.shardMergeNs.Load())/1e9)

	p.family("matchd_candidate_requests_total", "Served requests answered from candidate-filtered cost tables.", "counter")
	p.sample("matchd_candidate_requests_total", "", float64(m.candRequests.Load()))
	p.family("matchd_candidate_pairs_total", "Cost-table pairs considered by candidate-filtered requests.", "counter")
	p.sample("matchd_candidate_pairs_total", "", float64(m.candPairs.Load()))
	p.family("matchd_candidate_pruned_total", "Cost-table pairs served as provable bounds instead of scores.", "counter")
	p.sample("matchd_candidate_pruned_total", "", float64(m.candPruned.Load()))
	p.family("matchd_candidate_schemas_skipped_total", "Repository schemas proven answer-free before any metric evaluation.", "counter")
	p.sample("matchd_candidate_schemas_skipped_total", "", float64(m.candSchemasSkipped.Load()))

	st := h.srv.Stats()
	p.family("matchd_server_workers", "Worker pool size.", "gauge")
	p.sample("matchd_server_workers", "", float64(st.Workers))
	p.family("matchd_server_queue_depth", "Admission queue bound.", "gauge")
	p.sample("matchd_server_queue_depth", "", float64(st.QueueDepth))
	p.family("matchd_server_resident_tenants", "Tenants whose service is currently built.", "gauge")
	p.sample("matchd_server_resident_tenants", "", float64(st.ResidentTenants))
	p.family("matchd_server_inflight_groups", "Admitted request groups not yet completed.", "gauge")
	p.sample("matchd_server_inflight_groups", "", float64(st.InFlight))
	p.family("matchd_server_draining", "1 while the server drains (or is closed), 0 while serving.", "gauge")
	draining := 0.0
	if st.Draining {
		draining = 1.0
	}
	p.sample("matchd_server_draining", "", draining)
	p.family("matchd_server_accepted_total", "Request groups admitted past admission control.", "counter")
	p.sample("matchd_server_accepted_total", "", float64(st.Accepted))
	p.family("matchd_server_completed_total", "Request groups fully executed.", "counter")
	p.sample("matchd_server_completed_total", "", float64(st.Completed))
	p.family("matchd_server_overloaded_total", "Typed admission rejections delivered to callers.", "counter")
	p.sample("matchd_server_overloaded_total", "", float64(st.Overloaded))
	p.family("matchd_server_queue_wait_seconds_total", "Cumulative admission-to-execution wait across executed request groups.", "counter")
	p.sample("matchd_server_queue_wait_seconds_total", "", st.QueueWaitTotal.Seconds())
	p.family("matchd_server_queue_wait_max_seconds", "Worst single request-group admission-to-execution wait since boot.", "gauge")
	p.sample("matchd_server_queue_wait_max_seconds", "", st.QueueWaitMax.Seconds())

	if tr := h.cfg.Tracer; tr != nil {
		snap := tr.Snapshot()
		p.family("matchd_traces_sampled_total", "Span traces begun (head-sampled or forced).", "counter")
		p.sample("matchd_traces_sampled_total", "", float64(snap.Sampled))
		p.family("matchd_traces_captured_total", "Finished span traces filed into the capture rings.", "counter")
		p.sample("matchd_traces_captured_total", "", float64(snap.Captured))
	}

	// Go runtime telemetry: overload investigations need the runtime
	// pressure next to the serving counters.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.family("go_goroutines", "Goroutines currently live.", "gauge")
	p.sample("go_goroutines", "", float64(runtime.NumGoroutine()))
	p.family("go_memstats_heap_alloc_bytes", "Heap bytes allocated and still in use.", "gauge")
	p.sample("go_memstats_heap_alloc_bytes", "", float64(ms.HeapAlloc))
	p.family("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge")
	p.sample("go_memstats_heap_sys_bytes", "", float64(ms.HeapSys))
	p.family("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
	p.sample("go_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)
	p.family("go_gc_cycles_total", "Completed GC cycles.", "counter")
	p.sample("go_gc_cycles_total", "", float64(ms.NumGC))
	p.family("go_gomaxprocs", "The effective GOMAXPROCS.", "gauge")
	p.sample("go_gomaxprocs", "", float64(runtime.GOMAXPROCS(0)))

	tenants := h.srv.Tenants()
	p.family("matchd_tenant_resident", "1 when the tenant's service is built and resident.", "gauge")
	type tenantRow struct {
		name string
		st   match.TenantStats
	}
	rows := make([]tenantRow, 0, len(tenants))
	for _, name := range tenants {
		ts, err := h.srv.TenantStats(name)
		if err != nil {
			continue // unregistered between listing and stats: skip
		}
		rows = append(rows, tenantRow{name, ts})
	}
	for _, r := range rows {
		v := 0.0
		if r.st.Resident {
			v = 1.0
		}
		p.sample("matchd_tenant_resident", fmt.Sprintf(`tenant="%s"`, escapeLabel(r.name)), v)
	}
	p.family("matchd_tenant_inflight_groups", "The tenant's admitted request groups not yet completed.", "gauge")
	for _, r := range rows {
		p.sample("matchd_tenant_inflight_groups", fmt.Sprintf(`tenant="%s"`, escapeLabel(r.name)), float64(r.st.InFlight))
	}
	p.family("matchd_tenant_version", "The tenant's current repository snapshot version (0 when not resident).", "gauge")
	for _, r := range rows {
		p.sample("matchd_tenant_version", fmt.Sprintf(`tenant="%s"`, escapeLabel(r.name)), float64(r.st.Version))
	}
	p.family("matchd_tenant_pairs_scored_total", "Name pairs the tenant's resident service scored (resets on eviction). A cost-table build scores each distinct (personal, repository) name pair once.", "counter")
	for _, r := range rows {
		p.sample("matchd_tenant_pairs_scored_total", fmt.Sprintf(`tenant="%s"`, escapeLabel(r.name)), float64(r.st.Cache.Misses))
	}

	if h.cfg.StoreMetrics != nil {
		srows := h.cfg.StoreMetrics()
		label := func(s StoreTenantMetrics) string {
			return fmt.Sprintf(`tenant="%s"`, escapeLabel(s.Tenant))
		}
		p.family("matchd_store_size_bytes", "Committed bytes of the tenant's durable log file.", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_size_bytes", label(s), float64(s.SizeBytes))
		}
		p.family("matchd_store_log_records", "Committed records in the tenant's durable log.", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_log_records", label(s), float64(s.LogRecords))
		}
		p.family("matchd_store_diff_records", "Diff records appended since the tenant's last base record (compaction resets it).", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_diff_records", label(s), float64(s.DiffRecords))
		}
		p.family("matchd_store_tail_version", "Last durably committed snapshot version of the tenant.", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_tail_version", label(s), float64(s.TailVersion))
		}
		p.family("matchd_store_last_compaction_timestamp_seconds", "Unix time the tenant's log was last rewritten from a full base (0: unknown).", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_last_compaction_timestamp_seconds", label(s), float64(s.LastCompactionUnix))
		}
		p.family("matchd_store_gap_heals_total", "Version-gap appends healed by a full base rewrite since boot.", "counter")
		for _, s := range srows {
			p.sample("matchd_store_gap_heals_total", label(s), float64(s.GapHeals))
		}
		p.family("matchd_store_recovery_seconds", "Wall time spent recovering the tenant from its log at boot (0: not recovered this boot).", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_recovery_seconds", label(s), s.RecoverySeconds)
		}
		p.family("matchd_store_recovered_version", "Snapshot version the tenant was recovered to at boot (0: not recovered this boot).", "gauge")
		for _, s := range srows {
			p.sample("matchd_store_recovered_version", label(s), float64(s.RecoveredVersion))
		}
	}
	return p.err
}

// StoreTenantMetrics is one tenant's durable-store state as exposed on
// /metrics; producers fill what they know and leave the rest zero.
type StoreTenantMetrics struct {
	// Tenant is the tenant name (the metric label).
	Tenant string
	// SizeBytes, LogRecords, DiffRecords, and TailVersion mirror the
	// store's committed log shape.
	SizeBytes   int64
	LogRecords  int
	DiffRecords int
	TailVersion uint64
	// LastCompactionUnix is the unix-seconds stamp of the last full
	// base rewrite.
	LastCompactionUnix int64
	// GapHeals counts appends healed by a full base rewrite.
	GapHeals int64
	// RecoverySeconds and RecoveredVersion describe this boot's
	// recovery of the tenant (zero when the tenant was not recovered).
	RecoverySeconds  float64
	RecoveredVersion uint64
}
