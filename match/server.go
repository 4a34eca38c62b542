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
	"repro/internal/lazy"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/xmlschema"
)

// Sentinel errors of the serving layer. Callers branch on them with
// errors.Is; the wrapped forms carry the tenant name.
var (
	// ErrOverloaded is returned when admission control rejects a
	// request: the server's wait list is full or the tenant is at its
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

// WithWorkers sets the number of execution slots. Values < 1 select
// GOMAXPROCS. The slots are the server's concurrency ceiling: at most
// this many request groups run at once, each on its caller's goroutine,
// however many requests are admitted.
func WithWorkers(n int) ServerOption { return func(c *serverConfig) { c.workers = n } }

// WithQueueDepth bounds how many admitted request groups may wait for
// an execution slot. Submissions beyond it fail fast with
// ErrOverloaded instead of waiting unboundedly. Values < 1 select
// 4×workers.
func WithQueueDepth(n int) ServerOption { return func(c *serverConfig) { c.queueDepth = n } }

// WithTenantConcurrency caps how many request groups one tenant may
// have in flight (waiting or running) at once, so a single hot tenant
// cannot monopolize the execution slots; excess submissions for that
// tenant fail with ErrOverloaded while other tenants proceed. Values
// < 1 disable the per-tenant cap (the global queue depth still
// applies).
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
	// admitted holds one token per admitted request group, waiting or
	// running: at most workers+queueDepth, so at most queueDepth wait
	// while every slot runs a group. slots holds one token per running
	// group.
	admitted chan struct{}
	slots    chan struct{}

	mu       sync.Mutex
	closed   bool
	draining bool
	registry map[string]*tenantReg
	resident *lru.Map[string, *residentTenant]

	accepted   atomic.Int64
	completed  atomic.Int64
	overloaded atomic.Int64
	// queueWaitNs accumulates admission-to-execution wait across all
	// executed groups; queueWaitMaxNs tracks the worst single wait.
	queueWaitNs    atomic.Int64
	queueWaitMaxNs atomic.Int64
	// inflight counts admitted-but-not-completed request groups. It is
	// incremented under mu at admission and decremented when the
	// group's job finishes, so Drain and Close observing zero after
	// admission stopped prove no admitted group is still pending.
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

// residentTenant is the lazily built service of one tenant. The LRU
// owns the entry, but evicted values stay safe for requests already
// holding them.
type residentTenant = lazy.Cell[*Service]

// NewServer builds an empty multi-tenant server. It starts no
// goroutines: every request group runs on the goroutine of the Match
// or MatchBatch call that submitted it, and only a tenant's service
// build gets a goroutine of its own.
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
		admitted:     make(chan struct{}, cfg.workers+cfg.queueDepth),
		slots:        make(chan struct{}, cfg.workers),
	}
	return s
}

// Close stops accepting requests and waits until every admitted
// request group, waiting or running, has finished. It is idempotent;
// requests submitted after Close fail with ErrServerClosed.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.idle(context.Background())
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
	return s.serviceOf(context.Background(), reg, rt)
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
	if ok {
		if _, err, done := rt.Built(); done && err != nil {
			ok = false
		}
	}
	if !ok {
		rt = &residentTenant{}
		s.resident.Put(tenant, rt)
	}
	return reg, rt, nil
}

// serviceOf returns the resident service, building it on first use.
// Concurrent callers of the same resident entry share one build, which
// runs on a goroutine of its own: a factory takes no ctx, so a caller
// whose ctx ends first returns ctx.Err() at once while the build goes
// on for the next request (the goroutine ends when the factory
// returns; Close does not wait for it). A service rebuilt after an
// eviction is fast-forwarded to the tenant's latest UpdateTenant
// snapshot before it serves its first request, so residency churn
// never rolls a tenant back to its registration-time repository.
func (s *Server) serviceOf(ctx context.Context, reg *tenantReg, rt *residentTenant) (*Service, error) {
	return rt.Go(ctx, func() (*Service, error) {
		svc, err := reg.build()
		if err != nil {
			return nil, err
		}
		reg.snapMu.Lock()
		target := reg.snap
		reg.snapMu.Unlock()
		if target == nil || target == svc.Snapshot() {
			return svc, nil
		}
		if err := svc.Update(func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return target, nil
		}); err != nil {
			// A service that cannot reach the tenant's current snapshot
			// must not serve the stale one; fail the entry so the next
			// lookup retries with a fresh one.
			return nil, fmt.Errorf("match: tenant %q: fast-forward: %w", reg.name, err)
		}
		return svc, nil
	})
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
		svc, err := s.serviceOf(context.WithoutCancel(ctx), reg, rt)
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
	// completed (waiting for a slot or running).
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
		if svc, err, done := rt.Built(); done && err == nil && svc != nil {
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
	// Workers and QueueDepth echo the admission configuration: the
	// execution slots and the bound on groups waiting for one.
	Workers, QueueDepth int
	// ResidentTenants counts tenants whose service is currently built.
	ResidentTenants int
	// Accepted counts request groups past admission control;
	// Completed those fully executed; Overloaded the ErrOverloaded
	// rejections delivered to callers (MatchBatch's transient,
	// internally retried rejections are not counted).
	Accepted, Completed, Overloaded int64
	// InFlight counts admitted request groups not yet completed
	// (waiting for a slot or running) at snapshot time.
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
// contexts and call Close, which waits for them to return). Drain is
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
	if err := s.idle(ctx); err != nil {
		return err
	}
	s.Close()
	return nil
}

// idle waits, once admission is off, until no admitted group is in
// flight, or until ctx ends. It polls the in-flight count, which only
// falls once admission is off. The poll interval bounds how late a
// drain notices the end, not request latency: groups run on their
// callers' goroutines and return to them as soon as they finish.
func (s *Server) idle(ctx context.Context) error {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
	return nil
}

// job is one admitted request group: requests of one tenant sharing
// one personal schema, run sequentially on one goroutine so the group
// pays a single session (cost-table) build.
type job struct {
	ctx     context.Context
	reg     *tenantReg
	rt      *residentTenant
	server  *Server
	reqs    []Request
	results []*Result
	errs    []error
	// submitted is the admission timestamp; run measures the queue wait
	// against it.
	submitted time.Time
}

// newJob prepares one request group for admission.
func (s *Server) newJob(ctx context.Context, reg *tenantReg, rt *residentTenant, reqs []Request) *job {
	return &job{
		ctx:     ctx,
		reg:     reg,
		rt:      rt,
		server:  s,
		reqs:    reqs,
		results: make([]*Result, len(reqs)),
		errs:    make([]error, len(reqs)),
	}
}

// fail reports err for every request of the group.
func (j *job) fail(err error) {
	for i := range j.errs {
		j.errs[i] = err
	}
}

// run executes an admitted group on the calling goroutine: it waits for
// an execution slot or the end of the group's ctx, runs every request
// of the group, then gives back everything admission took.
func (j *job) run() {
	s := j.server
	defer func() {
		j.reg.inflight.Add(-1)
		if j.reg.sem != nil {
			<-j.reg.sem
		}
		<-s.admitted
		s.completed.Add(1)
		s.inflight.Add(-1)
	}()
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-j.ctx.Done():
	}
	// A group whose caller already gave up must not take a slot's time
	// with the expensive non-cancellable steps (tenant build, cost
	// tables) — that would amplify exactly the overload admission
	// control exists to shed.
	if err := j.ctx.Err(); err != nil {
		j.fail(err)
		return
	}
	// Queue wait: admission to execution start. Recorded on the server
	// counters for every group and, when the group's context carries a
	// trace, as a retroactive span under its root.
	runStart := time.Now()
	queueWait := runStart.Sub(j.submitted)
	s.queueWaitNs.Add(queueWait.Nanoseconds())
	for {
		cur := s.queueWaitMaxNs.Load()
		if queueWait.Nanoseconds() <= cur ||
			s.queueWaitMaxNs.CompareAndSwap(cur, queueWait.Nanoseconds()) {
			break
		}
	}
	obs.FromContext(j.ctx).Record("queue_wait", j.submitted, runStart)
	svc, err := s.serviceOf(j.ctx, j.reg, j.rt)
	if err != nil {
		j.fail(err)
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
			j.fail(err)
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

// admit runs admission control for one group: first the per-tenant
// concurrency cap, then a place among the server's admitted groups.
// Both reject with ErrOverloaded rather than blocking. An admitted
// group must be run.
func (s *Server) admit(j *job) error {
	if j.reg.sem != nil {
		select {
		case j.reg.sem <- struct{}{}:
		default:
			return fmt.Errorf("match: tenant %q at concurrency limit: %w", j.reg.name, ErrOverloaded)
		}
	}
	refuse := func(err error) error {
		s.mu.Unlock()
		if j.reg.sem != nil {
			<-j.reg.sem
		}
		return err
	}
	s.mu.Lock()
	if s.closed || s.draining {
		return refuse(ErrServerClosed)
	}
	select {
	case s.admitted <- struct{}{}:
	default:
		return refuse(fmt.Errorf("match: queue full: %w", ErrOverloaded))
	}
	// Counted before the lock drops so a Drain that begins right after
	// this admission cannot observe zero in-flight groups while this
	// one is still pending.
	j.reg.inflight.Add(1)
	s.inflight.Add(1)
	s.mu.Unlock()
	s.accepted.Add(1)
	j.submitted = time.Now()
	return nil
}

// Match serves one request for one tenant on the calling goroutine:
// resolve the tenant, pass admission control, wait for an execution
// slot, then build the tenant's service if needed and run the request.
// A caller whose ctx ends while the request waits for a slot, for the
// tenant's service build or for cost tables another request is
// building gets ctx.Err() at once; a running search is cancelled
// through the same ctx. Cost tables the request builds itself are not
// cancellable: their build is bounded by the corpus size and keeps the
// request's slot until it ends.
func (s *Server) Match(ctx context.Context, tenant string, req Request) (*Result, error) {
	reg, rt, err := s.lookup(tenant)
	if err != nil {
		return nil, err
	}
	j := s.newJob(ctx, reg, rt, []Request{req})
	if err := s.admit(j); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.overloaded.Add(1)
		}
		return nil, err
	}
	j.run()
	return j.results[0], j.errs[0]
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
// on one goroutine and pays one session (cost-table) build, identical
// registry queries inside it coalesce into one search, and distinct
// groups run in parallel, each on a goroutine of its own, up to the
// server's execution slots. Results arrive in input order and failures
// are per-request — they never abort the rest of the batch.
//
// Admission differs from Match: a batch is one caller's closed-loop
// unit of work, so when admission refuses a group MatchBatch waits for
// one of its own earlier groups to finish and retries instead of
// failing fast. A group is rejected with ErrOverloaded only when the
// server stays saturated by OTHER traffic while the batch has nothing
// left in flight to wait on. The call returns when every admitted
// group has returned; once ctx ends, groups not yet admitted are not
// admitted, and admitted groups end as Match does: waiting groups
// report ctx.Err() at once and running groups are cancelled through
// the same ctx.
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

	// Every admitted group signals finished once its results are in
	// out; running counts the batch's groups not yet seen finishing.
	finished := make(chan struct{}, len(order))
	running := 0
	// admitOrWait passes one group through admission control with
	// back-pressure: a group refused as overloaded waits for one of the
	// batch's own groups to finish (freeing a slot, a place in the wait
	// list or tenant capacity) and retries. With nothing of ours in
	// flight the saturation is external, and the group is rejected.
	admitOrWait := func(j *job) error {
		for {
			err := s.admit(j)
			if !errors.Is(err, ErrOverloaded) {
				return err
			}
			if running == 0 {
				s.overloaded.Add(1)
				return err
			}
			select {
			case <-finished:
				running--
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	var wg sync.WaitGroup
	for _, k := range order {
		g := groups[k]
		j := s.newJob(ctx, g.reg, g.rt, g.reqs)
		err := ctx.Err()
		if err == nil {
			err = admitOrWait(j)
		}
		if err != nil {
			for _, i := range g.idx {
				out[i] = BatchResult{Err: err}
			}
			continue
		}
		running++
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.run()
			for k, i := range g.idx {
				out[i] = BatchResult{Result: j.results[k], Err: j.errs[k]}
			}
			finished <- struct{}{}
		}()
	}
	wg.Wait()
	return out
}
