package httpserve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/xmlschema"
	"repro/match"
)

// Defaults of the handler limits; see Config.
const (
	DefaultMaxBodyBytes        = 1 << 20 // 1 MiB
	DefaultMaxPersonalElements = 512
	DefaultMaxBatchRequests    = 256
	DefaultMaxDeadline         = 2 * time.Minute
	DefaultInternSize          = 256
)

// DeadlineHeader carries the per-request deadline in integer
// milliseconds; see the package documentation.
const DeadlineHeader = "X-Match-Deadline-Ms"

// TraceHeader carries the trace identifier: inbound it forces a span
// trace under the given id; outbound it reports the id of the trace
// this request recorded (absent when the request was not traced).
const TraceHeader = "X-Match-Trace-Id"

// Config bundles the handler's policy knobs. The zero value serves an
// open (unauthenticated) endpoint with the default limits.
type Config struct {
	// Auth is the bearer-token table; nil serves unauthenticated.
	Auth *AuthConfig
	// MaxBodyBytes bounds every request body (≤ 0: 1 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxPersonalElements bounds the personal schema size per request
	// (≤ 0: 512).
	MaxPersonalElements int
	// MaxBatchRequests bounds one batch (≤ 0: 256).
	MaxBatchRequests int
	// MaxDeadline caps client-requested deadlines (≤ 0: 2 minutes).
	MaxDeadline time.Duration
	// InternSize bounds the personal-schema interner (≤ 0: 256).
	InternSize int
	// Log, when non-nil, receives one structured access-log record per
	// request: method, path, route, status, bytes in, duration, and —
	// when present — trace id and tenant.
	Log *slog.Logger
	// Tracer, when non-nil, enables span tracing: sampled (or forced)
	// requests record a stage-granular span tree, the trace id is
	// returned in the TraceHeader response header, and finished traces
	// land in the tracer's rings, served by GET /debug/traces (admin
	// auth). A nil Tracer still serves /debug/traces but reports
	// tracing disabled.
	Tracer *obs.Tracer
	// StoreMetrics, when non-nil, is polled at every /metrics scrape
	// for the durable store's per-tenant state (matchd wires it when
	// running with -store-dir).
	StoreMetrics func() []StoreTenantMetrics
	// EnablePprof mounts net/http/pprof under /debug/pprof/, gated by
	// the same admin auth as the admin surface — with no admin tokens
	// configured the routes exist but always refuse. Off by default:
	// profiles expose operational internals.
	EnablePprof bool
}

// Handler serves the wire protocol over one match.Server. It is an
// http.Handler; create it with New and mount it as the root handler.
type Handler struct {
	srv    *match.Server
	cfg    Config
	mux    *http.ServeMux
	met    *metrics
	intern *interner
}

// New builds the handler stack over srv: routing, auth, deadlines,
// limits, metrics, and logging.
func New(srv *match.Server, cfg Config) *Handler {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxPersonalElements <= 0 {
		cfg.MaxPersonalElements = DefaultMaxPersonalElements
	}
	if cfg.MaxBatchRequests <= 0 {
		cfg.MaxBatchRequests = DefaultMaxBatchRequests
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = DefaultMaxDeadline
	}
	h := &Handler{
		srv:    srv,
		cfg:    cfg,
		mux:    http.NewServeMux(),
		met:    newMetrics(),
		intern: newInterner(cfg.InternSize),
	}
	h.mux.HandleFunc("POST /v1/match/{tenant}", h.handleMatch)
	h.mux.HandleFunc("POST /v1/batch", h.handleBatch)
	h.mux.HandleFunc("GET /v1/tenants", h.handleTenants)
	h.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", h.handleTenantStats)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("POST /admin/v1/tenants/{tenant}", h.handleAdminRegister)
	h.mux.HandleFunc("PUT /admin/v1/tenants/{tenant}", h.handleAdminUpdate)
	h.mux.HandleFunc("GET /debug/traces", h.adminOnly(h.handleTraces))
	if cfg.EnablePprof {
		h.mux.HandleFunc("GET /debug/pprof/", h.adminOnly(pprof.Index))
		h.mux.HandleFunc("GET /debug/pprof/cmdline", h.adminOnly(pprof.Cmdline))
		h.mux.HandleFunc("GET /debug/pprof/profile", h.adminOnly(pprof.Profile))
		h.mux.HandleFunc("GET /debug/pprof/symbol", h.adminOnly(pprof.Symbol))
		h.mux.HandleFunc("GET /debug/pprof/trace", h.adminOnly(pprof.Trace))
	}
	return h
}

// adminOnly wraps a handler behind the admin bearer-token check.
func (h *Handler) adminOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !h.authorizeAdmin(w, r) {
			return
		}
		next(w, r)
	}
}

// statusWriter records the response status and size for the access log
// and the request counters. It also carries the per-request trace
// state: the ServeMux clones the request, so handlers cannot hand data
// back through the request context — they record the tenant (and a
// late-started trace) onto this shared writer instead.
type statusWriter struct {
	http.ResponseWriter
	status int
	start  time.Time
	tenant string
	trace  *obs.Trace
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// routeLabel classifies the request path into the bounded label space
// of the request counters.
func routeLabel(path string) string {
	switch {
	case path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	case path == "/v1/batch":
		return "batch"
	case len(path) >= len("/v1/match/") && path[:len("/v1/match/")] == "/v1/match/":
		return "match"
	case len(path) >= len("/v1/tenants") && path[:len("/v1/tenants")] == "/v1/tenants":
		return "tenants"
	case len(path) >= len("/admin/") && path[:len("/admin/")] == "/admin/":
		return "admin"
	default:
		return "other"
	}
}

// ServeHTTP runs the outer middleware: in-flight gauge, panic
// containment, status recording, request counters, trace capture, and
// the structured access log.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.met.inFlight.Add(1)
	sw := &statusWriter{ResponseWriter: w, start: start}
	// Edge trace decision: an inbound trace id forces a trace under
	// that id; otherwise head sampling decides. (A body-level opt-in is
	// decided later by handleMatch, retroactively, onto sw.)
	if tr := h.cfg.Tracer; tr != nil {
		inbound := r.Header.Get(TraceHeader)
		if t := tr.Begin(inbound, "http_request", start, inbound != ""); t != nil {
			sw.trace = t
			root := t.Root()
			root.SetStr("method", r.Method)
			root.SetStr("route", routeLabel(r.URL.Path))
			w.Header().Set(TraceHeader, t.ID())
			r = r.WithContext(obs.ContextWith(r.Context(), root))
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			// A panicking handler must cost one 500, never the process.
			if sw.status == 0 {
				writeCode(sw, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("panic: %v", rec))
			}
		}
		d := time.Since(start)
		route := routeLabel(r.URL.Path)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		h.met.observe(route, sw.status, d)
		h.met.inFlight.Add(-1)
		if t := sw.trace; t != nil {
			root := t.Root()
			root.SetInt("status", int64(sw.status))
			if sw.tenant != "" {
				root.SetStr("tenant", sw.tenant)
			}
			h.cfg.Tracer.Capture(t, time.Now(), sw.status >= 500)
		}
		if h.cfg.Log != nil {
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int64("bytes_in", r.ContentLength),
				slog.Duration("duration", d.Round(time.Microsecond)),
			)
			if sw.tenant != "" {
				attrs = append(attrs, slog.String("tenant", sw.tenant))
			}
			if sw.trace != nil {
				attrs = append(attrs, slog.String("trace_id", sw.trace.ID()))
			}
			h.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
		}
	}()
	h.mux.ServeHTTP(sw, r)
}

// requestContext derives the request context: the client's deadline
// header (clamped to the configured maximum) becomes a context
// deadline the whole matching pipeline honors. ok=false means the
// header was malformed and the 400 has been written.
func (h *Handler) requestContext(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx = r.Context()
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return ctx, func() {}, true
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		writeCode(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("invalid %s header %q: want a positive integer millisecond count", DeadlineHeader, raw))
		return nil, nil, false
	}
	d := time.Duration(ms) * time.Millisecond
	if d > h.cfg.MaxDeadline {
		d = h.cfg.MaxDeadline
	}
	ctx, cancel = context.WithTimeout(ctx, d)
	return ctx, cancel, true
}

// authorizeTenant enforces serving auth for one tenant; on failure the
// response has been written.
func (h *Handler) authorizeTenant(w http.ResponseWriter, r *http.Request, tenant string) bool {
	if !h.cfg.Auth.enabled() {
		return true
	}
	tok := bearerToken(r)
	if tok == "" {
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeCode(w, http.StatusUnauthorized, CodeUnauthorized, "missing bearer token")
		return false
	}
	if !h.cfg.Auth.allowTenant(tok, tenant) {
		writeCode(w, http.StatusForbidden, CodeForbidden, fmt.Sprintf("token not authorized for tenant %q", tenant))
		return false
	}
	return true
}

// authorizeAdmin enforces admin auth; on failure the response has been
// written. With no admin tokens configured the admin surface is
// disabled outright.
func (h *Handler) authorizeAdmin(w http.ResponseWriter, r *http.Request) bool {
	if h.cfg.Auth == nil || len(h.cfg.Auth.AdminTokens) == 0 {
		writeCode(w, http.StatusForbidden, CodeForbidden, "admin surface disabled: no admin tokens configured")
		return false
	}
	tok := bearerToken(r)
	if tok == "" {
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeCode(w, http.StatusUnauthorized, CodeUnauthorized, "missing bearer token")
		return false
	}
	if !h.cfg.Auth.allowAdmin(tok) {
		writeCode(w, http.StatusForbidden, CodeForbidden, "token not authorized for admin")
		return false
	}
	return true
}

// handleMatch serves POST /v1/match/{tenant}.
func (h *Handler) handleMatch(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	sw, _ := w.(*statusWriter)
	if sw != nil {
		sw.tenant = tenant
	}
	if !h.authorizeTenant(w, r, tenant) {
		return
	}
	ctx, cancel, ok := h.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	wreq, err := DecodeMatchRequest(body, h.cfg.MaxPersonalElements)
	if err != nil {
		status, code := decodeStatus(err)
		writeCode(w, status, code, err.Error())
		return
	}
	if wreq.Trace && h.cfg.Tracer != nil && sw != nil && sw.trace == nil {
		// The opt-in rides the body, which is only decoded after the
		// edge timestamp: force-start the trace retroactively at the
		// edge instant, with the decode recorded as its first span.
		if t := h.cfg.Tracer.Begin("", "http_request", sw.start, true); t != nil {
			root := t.Root()
			root.SetStr("method", r.Method)
			root.SetStr("route", "match")
			root.Record("decode", sw.start, time.Now())
			sw.trace = t
			w.Header().Set(TraceHeader, t.ID())
			ctx = obs.ContextWith(ctx, root)
		}
	}
	personal, err := h.intern.intern(wreq.Personal)
	if err != nil {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("personal schema: %v", err))
		return
	}
	res, err := h.srv.Match(ctx, tenant, match.Request{
		Personal: personal,
		Delta:    wreq.Delta,
		Matcher:  wreq.Matcher,
		Limit:    wreq.Limit,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	h.met.observeResult(res)
	resp := buildResponse(res)
	if wreq.Trace && sw != nil && sw.trace != nil {
		// Inline export: the root span is still open and closes at the
		// export instant, so the wire trace stays coherent while the
		// capture at middleware exit records the full wall.
		resp.Trace = sw.trace.Export(time.Now())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/batch: the closed-loop MatchBatch path.
// Wire-invalid batches fail whole with 400; runtime failures are
// per-item, mirroring the in-process contract.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, ok := h.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	wreq, err := DecodeBatchRequest(body, h.cfg.MaxPersonalElements, h.cfg.MaxBatchRequests)
	if err != nil {
		status, code := decodeStatus(err)
		writeCode(w, status, code, err.Error())
		return
	}
	// One auth check per distinct tenant: the token must cover every
	// tenant the batch names.
	if h.cfg.Auth.enabled() {
		tok := bearerToken(r)
		if tok == "" {
			w.Header().Set("WWW-Authenticate", "Bearer")
			writeCode(w, http.StatusUnauthorized, CodeUnauthorized, "missing bearer token")
			return
		}
		seen := make(map[string]bool)
		for _, it := range wreq.Requests {
			if seen[it.Tenant] {
				continue
			}
			seen[it.Tenant] = true
			if !h.cfg.Auth.allowTenant(tok, it.Tenant) {
				writeCode(w, http.StatusForbidden, CodeForbidden,
					fmt.Sprintf("token not authorized for tenant %q", it.Tenant))
				return
			}
		}
	}
	reqs := make([]match.BatchRequest, len(wreq.Requests))
	for i, it := range wreq.Requests {
		personal, err := h.intern.intern(it.Personal)
		if err != nil {
			writeCode(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("request %d: personal schema: %v", i, err))
			return
		}
		reqs[i] = match.BatchRequest{
			Tenant: it.Tenant,
			Request: match.Request{
				Personal: personal,
				Delta:    it.Delta,
				Matcher:  it.Matcher,
				Limit:    it.Limit,
			},
		}
	}
	results := h.srv.MatchBatch(ctx, reqs)
	out := BatchResponse{Results: make([]BatchResult, len(results))}
	for i, br := range results {
		if br.Err != nil {
			_, info := errorInfo(br.Err)
			out.Results[i] = BatchResult{Error: &info}
			continue
		}
		h.met.observeResult(br.Result)
		out.Results[i] = BatchResult{Response: buildResponse(br.Result)}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenants serves GET /v1/tenants (admin: tenant names are
// topology).
func (h *Handler) handleTenants(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Auth != nil && !h.authorizeAdmin(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tenants []string `json:"tenants"`
	}{Tenants: h.srv.Tenants()})
}

// handleTenantStats serves GET /v1/tenants/{tenant}/stats.
func (h *Handler) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !h.authorizeTenant(w, r, tenant) {
		return
	}
	ts, err := h.srv.TenantStats(tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TenantStatsResponse{
		Tenant:   ts.Tenant,
		Resident: ts.Resident,
		InFlight: ts.InFlight,
		Version:  ts.Version,
		Cache:    CacheStats{Hits: ts.Cache.Hits, Misses: ts.Cache.Misses, Entries: ts.Cache.Entries},
	})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.writeMetrics(w)
}

// handleTraces serves GET /debug/traces: the tracer's ring snapshot —
// recent and slow/errored traces with full span trees — behind admin
// auth (traces expose tenant names and matcher specs).
func (h *Handler) handleTraces(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Tracer == nil {
		writeCode(w, http.StatusNotFound, CodeBadRequest, "tracing disabled: no tracer configured")
		return
	}
	writeJSON(w, http.StatusOK, h.cfg.Tracer.Snapshot())
}

// handleHealthz serves GET /healthz: 200 while serving, 503 while
// draining or closed, so load balancers stop routing before the drain
// finishes.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h.srv.Stats().Draining {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// readRepositoryBody decodes a repository XML body under the size
// limit.
func (h *Handler) readRepositoryBody(w http.ResponseWriter, r *http.Request) (*xmlschema.Repository, bool) {
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	repo, err := xmlschema.ReadRepository(body)
	if err != nil {
		status, code := decodeStatus(err)
		writeCode(w, status, code, err.Error())
		return nil, false
	}
	if repo.Len() == 0 {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "repository holds no schemas")
		return nil, false
	}
	return repo, true
}

// handleAdminRegister serves POST /admin/v1/tenants/{tenant}: register
// a new tenant from a repository XML body.
func (h *Handler) handleAdminRegister(w http.ResponseWriter, r *http.Request) {
	if !h.authorizeAdmin(w, r) {
		return
	}
	tenant := r.PathValue("tenant")
	repo, ok := h.readRepositoryBody(w, r)
	if !ok {
		return
	}
	if err := h.srv.AddTenant(tenant, repo); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, struct {
		Tenant  string `json:"tenant"`
		Schemas int    `json:"schemas"`
	}{Tenant: tenant, Schemas: repo.Len()})
}

// handleAdminUpdate serves PUT /admin/v1/tenants/{tenant}: atomically
// replace the tenant's repository with the body via UpdateTenant —
// requests admitted before the swap finish on the old snapshot,
// requests admitted after see the new one. Only schemas whose content
// differs are replaced (see replaceAll); a body equal to the served
// repository answers 200 with the unchanged version.
func (h *Handler) handleAdminUpdate(w http.ResponseWriter, r *http.Request) {
	if !h.authorizeAdmin(w, r) {
		return
	}
	tenant := r.PathValue("tenant")
	repo, ok := h.readRepositoryBody(w, r)
	if !ok {
		return
	}
	err := h.srv.UpdateTenantContext(r.Context(), tenant, func(cur *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
		return replaceAll(cur, repo)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	ts, err := h.srv.TenantStats(tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tenant  string `json:"tenant"`
		Schemas int    `json:"schemas"`
		Version uint64 `json:"version"`
	}{Tenant: tenant, Schemas: repo.Len(), Version: ts.Version})
}

// replaceAll derives the snapshot holding exactly repo's schemas from
// cur: removals, replacements, and additions in one pass each. A
// decoded schema is never pointer-identical to a served one, so a
// schema whose tree equals the served one (xmlschema.Equal: names,
// types, child order) keeps the served *Schema; only schemas that
// differ enter Replace. The diff of the update then lists exactly the
// schemas the body changed, and index maintenance, session rebase and
// the durable append touch only those. A body equal to the served
// repository returns cur itself: the update is a no-op.
func replaceAll(cur *xmlschema.Snapshot, repo *xmlschema.Repository) (*xmlschema.Snapshot, error) {
	next := cur
	var gone []string
	for _, s := range cur.Schemas() {
		if repo.Schema(s.Name) == nil {
			gone = append(gone, s.Name)
		}
	}
	if len(gone) > 0 {
		var err error
		if next, err = next.Remove(gone...); err != nil {
			return nil, err
		}
	}
	var adds, reps []*xmlschema.Schema
	for _, s := range repo.Schemas() {
		switch old := cur.Schema(s.Name); {
		case old == nil:
			adds = append(adds, s)
		case !xmlschema.Equal(old.Root(), s.Root()):
			reps = append(reps, s)
		}
	}
	if len(reps) > 0 {
		var err error
		if next, err = next.Replace(reps...); err != nil {
			return nil, err
		}
	}
	if len(adds) > 0 {
		var err error
		if next, err = next.Add(adds...); err != nil {
			return nil, err
		}
	}
	return next, nil
}
