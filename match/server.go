package match

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/xmlschema"
)

// Sentinel errors of the serving layer. Callers branch on them with
// errors.Is; the wrapped forms carry the tenant name.
var (
	// ErrOverloaded is returned when admission control rejects a
	// request: the server queue is full or the tenant is at its
	// concurrency limit. The request was not run; the caller should
	// back off and retry.
	ErrOverloaded = errors.New("match: server overloaded")
	// ErrUnknownTenant is returned for requests naming a tenant no
	// Register or AddTenant call introduced.
	ErrUnknownTenant = errors.New("match: unknown tenant")
	// ErrServerClosed is returned for requests submitted after Close
	// (or after Drain began: a draining server admits nothing new).
	ErrServerClosed = errors.New("match: server closed")
	// ErrTenantExists is returned by Register and AddTenant for a
	// tenant name that is already registered.
	ErrTenantExists = errors.New("match: tenant already registered")
)

// defaultResidentTenants bounds how many tenant services (cluster
// index, sessions) stay resident at once; see
// WithResidentTenants.
const defaultResidentTenants = 8

// serverConfig collects the functional options of NewServer.
type serverConfig struct {
	workers      int
	queueDepth   int
	tenantLimit  int
	maxResident  int
	tenantShards int
	storeFor     func(tenant string) TenantStore
}

// ServerOption configures a Server at construction.
type ServerOption func(*serverConfig)

// WithWorkers bounds the worker pool executing requests. Values < 1
// select GOMAXPROCS. The pool is the server's concurrency ceiling:
// at most this many matcher searches run at once, however many
// requests are admitted.
func WithWorkers(n int) ServerOption { return func(c *serverConfig) { c.workers = n } }

// WithQueueDepth bounds the backlog of admitted-but-not-yet-running
// request groups. Submissions beyond it fail fast with ErrOverloaded
// instead of queueing unboundedly. Values < 1 select 4×workers.
func WithQueueDepth(n int) ServerOption { return func(c *serverConfig) { c.queueDepth = n } }

// WithTenantConcurrency caps how many request groups one tenant may
// have in flight (queued or running) at once, so a single hot tenant
// cannot monopolize the pool; excess submissions for that tenant fail
// with ErrOverloaded while other tenants proceed. Values < 1 disable
// the per-tenant cap (the global queue depth still applies).
func WithTenantConcurrency(n int) ServerOption { return func(c *serverConfig) { c.tenantLimit = n } }

// WithTenantShards makes every tenant service built by AddTenant serve
// scatter-gather sharded search with k shards by default — equivalent
// to prepending WithShards(k) to each AddTenant call's options, so a
// later explicit WithShards in those options still wins. Tenants
// registered through Register with a custom factory are unaffected.
// Values < 1 leave tenants unsharded.
func WithTenantShards(k int) ServerOption { return func(c *serverConfig) { c.tenantShards = k } }

// WithResidentTenants bounds how many tenants' services are resident
// at once. A tenant's Service (its cluster index and session cache) is built lazily on first request and LRU-evicted
// beyond this bound; an evicted tenant stays registered and is rebuilt
// on its next request, while requests already holding the evicted
// service finish safely on it. Values < 1 select the default (8).
func WithResidentTenants(n int) ServerOption { return func(c *serverConfig) { c.maxResident = n } }

// Server hosts many named repositories ("tenants") behind one serving
// API with batching and admission control. Register tenants up front
// (their services are built lazily), then serve Match and MatchBatch
// calls concurrently. See the package documentation for the tenancy
// and overload contract.
type Server struct {
	workers      int
	queueDepth   int
	tenantLimit  int
	tenantShards int
	storeFor     func(tenant string) TenantStore

	mu       sync.Mutex
	closed   bool
	draining bool
	registry map[string]*tenantReg
	resident *lru.Map[string, *residentTenant]
	queue    chan *job
	wg       sync.WaitGroup

	accepted   atomic.Int64
	completed  atomic.Int64
	overloaded atomic.Int64
	// queueWaitNs accumulates admission-to-execution wait across all
	// executed groups; queueWaitMaxNs tracks the worst single wait.
	queueWaitNs    atomic.Int64
	queueWaitMaxNs atomic.Int64
	// inflight counts admitted-but-not-completed request groups. It is
	// incremented under mu before the group is enqueued and decremented
	// when the group's job finishes, so Drain observing zero under the
	// draining flag proves no admitted group is still pending.
	inflight atomic.Int64
}

// tenantReg is the permanent registration of one tenant: the service
// factory and the admission state that must survive eviction of the
// built service.
type tenantReg struct {
	name  string
	build func() (*Service, error)
	// sem holds one token per in-flight request group when the server
	// caps per-tenant concurrency; nil means uncapped.
	sem      chan struct{}
	inflight atomic.Int64
	// snap is the latest snapshot applied through UpdateTenant (nil
	// until the first update). It survives eviction of the built
	// service: a service rebuilt from the factory is fast-forwarded to
	// it before serving, so live updates are never lost to residency
	// churn. snapMu also serializes UpdateTenant per tenant.
	snapMu sync.Mutex
	snap   *xmlschema.Snapshot
}

// residentTenant is the lazily built service of one tenant. The once
// singleflights concurrent first requests; the LRU owns the entry,
// but evicted values stay safe for requests already holding them.
// svc/err/done are guarded by mu so observers (TenantStats) never
// race the build.
type residentTenant struct {
	build func() (*Service, error)
	once  sync.Once
	// ffOnce fast-forwards a freshly built service to the tenant's
	// latest updated snapshot (tenantReg.snap) exactly once.
	ffOnce sync.Once

	mu   sync.Mutex
	done bool
	svc  *Service
	err  error
}

// service returns the built service, nil until the build completed.
func (rt *residentTenant) service() (*Service, error, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.svc, rt.err, rt.done
}

// failed reports whether the build completed with an error.
func (rt *residentTenant) failed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.done && rt.err != nil
}

// NewServer builds an empty multi-tenant server and starts its worker
// pool. Callers must Close it to stop the workers.
func NewServer(opts ...ServerOption) *Server {
	cfg := serverConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 4 * cfg.workers
	}
	if cfg.maxResident < 1 {
		cfg.maxResident = defaultResidentTenants
	}
	s := &Server{
		workers:      cfg.workers,
		queueDepth:   cfg.queueDepth,
		tenantLimit:  cfg.tenantLimit,
		tenantShards: cfg.tenantShards,
		storeFor:     cfg.storeFor,
		registry:     make(map[string]*tenantReg),
		resident:     lru.New[string, *residentTenant](cfg.maxResident),
		queue:        make(chan *job, cfg.queueDepth),
	}
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops accepting requests, lets queued and running work finish,
// and joins the worker pool. It is idempotent; requests submitted
// after Close fail with ErrServerClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Register introduces a tenant whose Service is built by factory on
// the tenant's first request (and again after an eviction). The name
// must be new and the factory non-nil.
func (s *Server) Register(name string, factory func() (*Service, error)) error {
	if name == "" {
		return fmt.Errorf("match: empty tenant name")
	}
	if factory == nil {
		return fmt.Errorf("match: tenant %q: nil service factory", name)
	}
	reg := &tenantReg{name: name, build: factory}
	if s.tenantLimit > 0 {
		reg.sem = make(chan struct{}, s.tenantLimit)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if _, dup := s.registry[name]; dup {
		return fmt.Errorf("match: tenant %q: %w", name, ErrTenantExists)
	}
	s.registry[name] = reg
	return nil
}

// AddTenant registers a tenant serving repo with the given service
// options — the common case where no custom factory is needed.
func (s *Server) AddTenant(name string, repo *xmlschema.Repository, opts ...Option) error {
	if repo == nil {
		return fmt.Errorf("match: tenant %q: nil repository", name)
	}
	if s.tenantShards > 0 {
		opts = append([]Option{WithShards(s.tenantShards)}, opts...)
	}
	var ts TenantStore
	if s.storeFor != nil {
		if ts = s.storeFor(name); ts != nil {
			opts = append(opts, WithStore(ts))
		}
	}
	if err := s.Register(name, func() (*Service, error) { return NewService(repo, opts...) }); err != nil {
		return err
	}
	// Durable from registration, not from first request: the base is
	// written eagerly at the version the lazily built service will
	// start at, so a crash before the first request still recovers the
	// tenant. (Registration succeeded, so the name was free — no risk
	// of clobbering another tenant's log.)
	if ts != nil {
		if err := ts.SaveBase(1, repo); err != nil {
			return fmt.Errorf("match: tenant %q: durable base: %w", name, err)
		}
	}
	return nil
}

// Tenants returns the registered tenant names, sorted.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.registry))
	for name := range s.registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Service returns the tenant's service, building it on first use
// (concurrent callers share one build) and marking the tenant most
// recently used. It fails with ErrUnknownTenant for unregistered
// names.
func (s *Server) Service(tenant string) (*Service, error) {
	reg, rt, err := s.lookup(tenant)
	if err != nil {
		return nil, err
	}
	return s.serviceOf(reg, rt)
}

// lookup resolves the registration and the resident entry of tenant,
// creating (or re-creating, after an eviction) the resident slot.
func (s *Server) lookup(tenant string) (*tenantReg, *residentTenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrServerClosed
	}
	reg, ok := s.registry[tenant]
	if !ok {
		return nil, nil, fmt.Errorf("match: tenant %q: %w", tenant, ErrUnknownTenant)
	}
	rt, ok := s.resident.Get(tenant)
	// A build that already failed is not kept: the next request gets a
	// fresh entry and a fresh build attempt (in-flight holders of the
	// failed entry still see its error). Without this a transient
	// factory failure on a never-evicted tenant would be permanent.
	if ok && rt.failed() {
		ok = false
	}
	if !ok {
		rt = &residentTenant{build: reg.build}
		s.resident.Put(tenant, rt)
	}
	return reg, rt, nil
}

// serviceOf builds the resident service outside the server lock;
// concurrent callers of the same resident entry share one build. A
// service rebuilt after an eviction is fast-forwarded to the tenant's
// latest UpdateTenant snapshot before it serves its first request, so
// residency churn never rolls a tenant back to its registration-time
// repository.
func (s *Server) serviceOf(reg *tenantReg, rt *residentTenant) (*Service, error) {
	rt.once.Do(func() {
		svc, err := rt.build()
		rt.mu.Lock()
		rt.svc, rt.err, rt.done = svc, err, true
		rt.mu.Unlock()
	})
	svc, err, _ := rt.service()
	if err != nil {
		return nil, err
	}
	rt.ffOnce.Do(func() {
		reg.snapMu.Lock()
		target := reg.snap
		reg.snapMu.Unlock()
		if target == nil || target == svc.Snapshot() {
			return
		}
		if ffErr := svc.Update(func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return target, nil
		}); ffErr != nil {
			// A service that cannot reach the tenant's current snapshot
			// must not serve the stale one; surface the failure and let
			// the next lookup retry with a fresh entry.
			rt.mu.Lock()
			rt.err = fmt.Errorf("match: tenant %q: fast-forward: %w", reg.name, ffErr)
			rt.mu.Unlock()
		}
	})
	// Re-read: the fast-forward may have amended the outcome.
	svc, err, _ = rt.service()
	if err != nil {
		return nil, err
	}
	return svc, nil
}

// UpdateTenant atomically swaps one tenant's repository snapshot:
// mutate receives the tenant's current snapshot and returns the next
// one (see Service.Update for the mutation contract and what stays
// warm). Requests admitted before the swap finish against the old
// snapshot; requests admitted after see the new one; batch groups
// never mix versions. The updated snapshot is recorded on the
// registration, so a tenant evicted from residency and later rebuilt
// fast-forwards to it instead of reverting to the registration-time
// repository. Updates to one tenant serialize; different tenants
// update independently.
func (s *Server) UpdateTenant(tenant string, mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)) error {
	return s.UpdateTenantContext(context.Background(), tenant, mutate)
}

// UpdateTenantContext is UpdateTenant with tracing: when ctx carries an
// obs span the update's stages are recorded under it (see
// Service.UpdateContext). The context does not cancel the swap.
func (s *Server) UpdateTenantContext(ctx context.Context, tenant string, mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)) error {
	if mutate == nil {
		return fmt.Errorf("match: tenant %q: nil update function", tenant)
	}
	for {
		reg, rt, err := s.lookup(tenant)
		if err != nil {
			return err
		}
		svc, err := s.serviceOf(reg, rt)
		if err != nil {
			return err
		}
		reg.snapMu.Lock()
		// The entry may have been evicted (and possibly rebuilt) while
		// we were building; updating a ghost would strand the update on
		// a service no request can reach. Re-check residency under
		// snapMu — rebuilt entries fast-forward under the same lock, so
		// once we hold it a still-resident entry stays authoritative.
		s.mu.Lock()
		cur, resident := s.resident.Peek(tenant)
		s.mu.Unlock()
		if !resident || cur != rt {
			reg.snapMu.Unlock()
			continue
		}
		err = svc.UpdateContext(ctx, mutate)
		if err == nil {
			reg.snap = svc.Snapshot()
		}
		reg.snapMu.Unlock()
		return err
	}
}

// TenantStats is a point-in-time view of one tenant's serving state.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string
	// Resident reports whether the tenant's service is currently
	// built and held by the residency LRU.
	Resident bool
	// InFlight counts the tenant's admitted request groups not yet
	// completed (queued or running).
	InFlight int
	// Version is the tenant's current repository snapshot version
	// (zero when the tenant is not resident).
	Version uint64
	// Cache is the cumulative work of the tenant's scorer — name pairs
	// scored, as Misses — while resident. Zero when the tenant is not
	// resident or its scorer keeps no counters.
	Cache engine.Stats
}

// TenantStats reports the serving state of one tenant. Unlike Service
// it never builds the tenant or touches LRU recency.
func (s *Server) TenantStats(tenant string) (TenantStats, error) {
	s.mu.Lock()
	reg, ok := s.registry[tenant]
	if !ok {
		s.mu.Unlock()
		return TenantStats{}, fmt.Errorf("match: tenant %q: %w", tenant, ErrUnknownTenant)
	}
	rt, resident := s.resident.Peek(tenant)
	s.mu.Unlock()

	st := TenantStats{Tenant: tenant, InFlight: int(reg.inflight.Load())}
	if resident {
		if svc, err, done := rt.service(); done && err == nil && svc != nil {
			st.Resident = true
			st.Version = svc.Version()
			if cache, ok := svc.CacheStats(); ok {
				st.Cache = cache
			}
		}
	}
	return st, nil
}

// ServerStats aggregates the server's admission counters.
type ServerStats struct {
	// Workers and QueueDepth echo the pool configuration.
	Workers, QueueDepth int
	// ResidentTenants counts tenants whose service is currently built.
	ResidentTenants int
	// Accepted counts request groups past admission control;
	// Completed those fully executed; Overloaded the ErrOverloaded
	// rejections delivered to callers (MatchBatch's transient,
	// internally retried rejections are not counted).
	Accepted, Completed, Overloaded int64
	// InFlight counts admitted request groups not yet completed
	// (queued or running) at snapshot time.
	InFlight int64
	// QueueWaitTotal accumulates the admission-to-execution wait across
	// all executed groups; QueueWaitMax is the worst single group wait.
	// Together with Completed they yield the mean queue wait.
	QueueWaitTotal, QueueWaitMax time.Duration
	// Draining reports that Drain has begun (or the server closed):
	// new submissions are rejected while admitted work finishes.
	Draining bool
}

// Stats returns a snapshot of the server's admission counters. Each
// counter is internally consistent (atomic) and monotone over the
// server's lifetime; distinct counters are read independently, so a
// snapshot taken under traffic may see Accepted advanced past the
// Completed it reports.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	resident := s.resident.Len()
	draining := s.draining || s.closed
	s.mu.Unlock()
	return ServerStats{
		Workers:         s.workers,
		QueueDepth:      s.queueDepth,
		ResidentTenants: resident,
		Accepted:        s.accepted.Load(),
		Completed:       s.completed.Load(),
		Overloaded:      s.overloaded.Load(),
		InFlight:        s.inflight.Load(),
		QueueWaitTotal:  time.Duration(s.queueWaitNs.Load()),
		QueueWaitMax:    time.Duration(s.queueWaitMaxNs.Load()),
		Draining:        draining,
	}
}

// Drain gracefully shuts the server down: it immediately stops
// admitting new request groups (submissions fail with ErrServerClosed),
// waits until every group admitted before the drain began has
// completed, then Closes the server. Requests already admitted are
// never failed by the drain itself — they finish and deliver their
// results. Drain returns nil after a complete drain; if ctx ends
// first it returns ctx.Err() with the server still draining (admission
// stays off; the caller may cancel the in-flight requests' own
// contexts and call Close, which waits for the workers). Drain is
// idempotent and safe to race with Match, MatchBatch, UpdateTenant,
// and Close.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// Poll the in-flight count: admission is already off, so the count
	// only falls. The poll interval bounds drain latency detection, not
	// request latency — finished groups close their done channels to
	// their callers immediately.
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
	s.Close()
	return nil
}

// job is one admitted request group: requests of one tenant sharing
// one personal schema, run sequentially on one worker so the group
// pays a single session (cost-table) build.
type job struct {
	ctx     context.Context
	reg     *tenantReg
	rt      *residentTenant
	server  *Server
	reqs    []Request
	results []*Result
	errs    []error
	done    chan struct{}
	// submitted is the admission timestamp, stamped by submit just
	// before the group enters the queue; run measures the queue wait
	// against it.
	submitted time.Time
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.run()
	}
}

// run executes every request of the group, then releases the group's
// admission token.
func (j *job) run() {
	defer func() {
		j.reg.inflight.Add(-1)
		if j.reg.sem != nil {
			<-j.reg.sem
		}
		j.server.completed.Add(1)
		j.server.inflight.Add(-1)
		close(j.done)
	}()
	// A group whose caller already gave up must not occupy the worker
	// with the expensive non-cancellable steps (tenant build, cost
	// tables) — that would amplify exactly the overload admission
	// control exists to shed.
	if err := j.ctx.Err(); err != nil {
		for i := range j.reqs {
			j.errs[i] = err
		}
		return
	}
	// Queue wait: admission (submit) to execution start. Recorded on
	// the server counters for every group and, when the group's context
	// carries a trace, as a retroactive span under its root.
	var queueWait time.Duration
	if !j.submitted.IsZero() {
		runStart := time.Now()
		queueWait = runStart.Sub(j.submitted)
		j.server.queueWaitNs.Add(queueWait.Nanoseconds())
		for {
			cur := j.server.queueWaitMaxNs.Load()
			if queueWait.Nanoseconds() <= cur ||
				j.server.queueWaitMaxNs.CompareAndSwap(cur, queueWait.Nanoseconds()) {
				break
			}
		}
		obs.FromContext(j.ctx).Record("queue_wait", j.submitted, runStart)
	}
	svc, err := j.server.serviceOf(j.reg, j.rt)
	if err != nil {
		for i := range j.reqs {
			j.errs[i] = err
		}
		return
	}
	// The whole group pins the serving state it starts on: a tenant
	// update swapping the snapshot mid-group must never make a group
	// mix repository versions (or split one coalesced search across
	// two).
	st := svc.currentState()
	// One cost-table build for the whole group: later requests of the
	// group (and their baseline runs) reuse the session tables.
	if len(j.reqs) > 1 {
		if _, err := svc.problemAt(j.ctx, st, j.reqs[0].Personal); err != nil {
			for i := range j.reqs {
				j.errs[i] = err
			}
			return
		}
	}
	// Coalescing: requests of the group that are byte-identical
	// registry queries (same spec, δ, and limit; not caller-supplied
	// System instances) run one search and share its immutable Result.
	type coalesceKey struct {
		matcher string
		delta   float64
		limit   int
	}
	first := make(map[coalesceKey]int, len(j.reqs))
	for i, req := range j.reqs {
		if err := j.ctx.Err(); err != nil {
			j.errs[i] = err
			continue
		}
		var key coalesceKey
		coalescable := req.System == nil
		if coalescable {
			key = coalesceKey{matcher: req.Matcher, delta: req.Delta, limit: req.Limit}
			if fi, ok := first[key]; ok {
				j.results[i], j.errs[i] = j.results[fi], j.errs[fi]
				continue
			}
		}
		// Each executed (non-coalesced) request gets its own span;
		// service-level stages nest under it.
		rctx, sp := obs.StartSpan(j.ctx, "request")
		sp.SetStr("tenant", j.reg.name)
		sp.SetStr("matcher", req.Matcher)
		sp.SetFloat("delta", req.Delta)
		j.results[i], j.errs[i] = svc.matchAt(rctx, st, req)
		if res := j.results[i]; res != nil {
			res.Stats.QueueWait = queueWait
			sp.SetInt("answers", int64(res.Stats.Answers))
		}
		if j.errs[i] != nil {
			sp.SetBool("err", true)
		}
		sp.End()
		if coalescable {
			first[key] = i
		}
	}
}

// submit runs admission control for one group and enqueues it: first
// the per-tenant concurrency cap, then the bounded queue. Both reject
// with ErrOverloaded rather than blocking.
func (s *Server) submit(j *job) error {
	if j.reg.sem != nil {
		select {
		case j.reg.sem <- struct{}{}:
		default:
			return fmt.Errorf("match: tenant %q at concurrency limit: %w", j.reg.name, ErrOverloaded)
		}
	}
	j.reg.inflight.Add(1)
	release := func() {
		j.reg.inflight.Add(-1)
		if j.reg.sem != nil {
			<-j.reg.sem
		}
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		release()
		return ErrServerClosed
	}
	j.submitted = time.Now()
	select {
	case s.queue <- j:
		// Counted before the lock drops so a Drain that begins right
		// after this submission cannot observe zero in-flight groups
		// while this one is still queued.
		s.inflight.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		return nil
	default:
		s.mu.Unlock()
		release()
		return fmt.Errorf("match: queue full: %w", ErrOverloaded)
	}
}

// Match serves one request for one tenant through the pool: resolve
// the tenant (building its service if needed), pass admission control,
// run on a worker, and wait for the result or ctx. A caller whose ctx
// ends while the request is queued or running gets ctx.Err(); the
// request itself is cancelled through the same ctx.
func (s *Server) Match(ctx context.Context, tenant string, req Request) (*Result, error) {
	reg, rt, err := s.lookup(tenant)
	if err != nil {
		return nil, err
	}
	j := &job{
		ctx:     ctx,
		reg:     reg,
		rt:      rt,
		server:  s,
		reqs:    []Request{req},
		results: make([]*Result, 1),
		errs:    make([]error, 1),
		done:    make(chan struct{}),
	}
	if err := s.submit(j); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.overloaded.Add(1)
		}
		return nil, err
	}
	select {
	case <-j.done:
		return j.results[0], j.errs[0]
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BatchRequest is one element of a MatchBatch call: a Request plus the
// tenant it targets.
type BatchRequest struct {
	// Tenant names the registered repository to match against.
	Tenant string
	// Request is the per-tenant matching request.
	Request
}

// BatchResult is the outcome of one BatchRequest, in input order.
// Exactly one of Result and Err is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}

// MatchBatch serves a batch of requests across tenants. Requests of
// one tenant that share a personal schema form a group: the group runs
// on one worker and pays one session (cost-table) build, identical
// registry queries inside it coalesce into one search, and distinct
// groups run in parallel across the pool. Results arrive in input
// order and failures are per-request — they never abort the rest of
// the batch.
//
// Admission differs from Match: a batch is one caller's closed-loop
// unit of work, so when the queue is full MatchBatch waits for its own
// earlier groups to finish and retries instead of failing fast. A
// group is rejected with ErrOverloaded only when the server stays
// saturated by OTHER traffic while the batch has nothing left in
// flight to wait on. The call returns when every group finished or ctx
// ended — on early ctx end the unfinished requests report ctx.Err().
func (s *Server) MatchBatch(ctx context.Context, reqs []BatchRequest) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}

	// Group same-tenant, same-personal requests, preserving input
	// order inside each group.
	type groupKey struct {
		tenant   string
		personal *xmlschema.Schema
	}
	type group struct {
		reg  *tenantReg
		rt   *residentTenant
		reqs []Request
		idx  []int
	}
	groups := make(map[groupKey]*group)
	var order []groupKey
	for i, br := range reqs {
		reg, rt, err := s.lookup(br.Tenant)
		if err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		k := groupKey{tenant: br.Tenant, personal: br.Personal}
		g, ok := groups[k]
		if !ok {
			g = &group{reg: reg, rt: rt}
			groups[k] = g
			order = append(order, k)
		}
		g.reqs = append(g.reqs, br.Request)
		g.idx = append(g.idx, i)
	}

	// collect copies one finished group's results into the output.
	type pending struct {
		j   *job
		idx []int
	}
	collect := func(p pending) {
		for k, i := range p.idx {
			out[i] = BatchResult{Result: p.j.results[k], Err: p.j.errs[k]}
		}
	}

	var inflight []pending
	cancelled := false
	for _, k := range order {
		g := groups[k]
		if cancelled {
			for _, i := range g.idx {
				out[i] = BatchResult{Err: ctx.Err()}
			}
			continue
		}
		j := &job{
			ctx:     ctx,
			reg:     g.reg,
			rt:      g.rt,
			server:  s,
			reqs:    g.reqs,
			results: make([]*Result, len(g.reqs)),
			errs:    make([]error, len(g.reqs)),
			done:    make(chan struct{}),
		}
		for {
			err := s.submit(j)
			if err == nil {
				inflight = append(inflight, pending{j: j, idx: g.idx})
				break
			}
			// Back-pressure: an overloaded submission waits for the
			// batch's own oldest in-flight group (whose completion
			// frees queue and tenant capacity) and retries. With
			// nothing of ours in flight the saturation is external —
			// reject this group and move on.
			if !errors.Is(err, ErrOverloaded) || len(inflight) == 0 {
				if errors.Is(err, ErrOverloaded) {
					s.overloaded.Add(1)
				}
				for _, i := range g.idx {
					out[i] = BatchResult{Err: err}
				}
				break
			}
			oldest := inflight[0]
			if waitDone(ctx, oldest.j) {
				collect(oldest)
				inflight = inflight[1:]
			} else {
				for _, i := range g.idx {
					out[i] = BatchResult{Err: ctx.Err()}
				}
				cancelled = true
				break
			}
		}
	}

	for _, p := range inflight {
		if waitDone(ctx, p.j) {
			collect(p)
		} else {
			for _, i := range p.idx {
				out[i] = BatchResult{Err: ctx.Err()}
			}
		}
	}
	return out
}

// waitDone waits for the job or ctx, whichever ends first, reporting
// whether the job finished. A job that is already done wins even when
// ctx has also ended — finished work is never discarded as cancelled.
func waitDone(ctx context.Context, j *job) bool {
	select {
	case <-j.done:
		return true
	default:
	}
	select {
	case <-j.done:
		return true
	case <-ctx.Done():
		return false
	}
}
