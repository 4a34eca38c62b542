package match

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/candindex"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/lazy"
	"repro/internal/lru"
	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/similarity"
	"repro/internal/xmlschema"
)

// defaultMaxSessions bounds the per-personal-schema session cache: a
// long-lived service fielding many distinct personal schemas evicts
// the least recently used session (its cost tables and baseline
// answers) beyond this many. Override with WithSessionCacheSize.
const defaultMaxSessions = 16

// config collects the functional options of NewService.
type config struct {
	match         matching.Config
	indexCfg      clustered.IndexConfig
	thresholds    []float64
	truth         *eval.Truth
	s1Curve       eval.Curve
	hGuess        int
	scorer        engine.Scorer
	baseline      string
	maxSessions   int
	shards        int
	shardStrategy string
	candidates    bool
	candHorizon   float64
	store         TenantStore
}

// Option configures a Service at construction.
type Option func(*config)

// WithScorer threads a caller-owned scoring engine through every stage
// the service runs: cost-table builds, the cluster index, and online
// cluster selection. Without it the service creates its own
// (engine.New over the default metric).
func WithScorer(s engine.Scorer) Option { return func(c *config) { c.scorer = s } }

// WithMatchConfig sets the objective function configuration (weights,
// depth stretch). The default is matching.DefaultConfig. A scorer set
// inside the config is used unless WithScorer overrides it.
func WithMatchConfig(cfg matching.Config) Option {
	return func(c *config) { c.match = cfg }
}

// WithIndexConfig configures the lazily built clustered index backing
// "clustered" specs. A nil IndexConfig.Scorer inherits the service
// scorer, so offline clustering and online search score alike.
func WithIndexConfig(cfg clustered.IndexConfig) Option {
	return func(c *config) { c.indexCfg = cfg }
}

// WithThresholds sets the ascending δ grid the bounds sweep uses. The
// default is eval.Thresholds(0, 0.45, 15). The last threshold is the
// baseline horizon: requests with Delta at most that value can carry
// bounds.
func WithThresholds(ts []float64) Option { return func(c *config) { c.thresholds = ts } }

// WithTruth gives the service planted ground truth. The service then
// measures the baseline's P/R curve itself (running the baseline once
// per session) and attaches guaranteed bounds to non-exhaustive
// requests. This is the synthetic-corpus mode used by the experiment
// pipeline.
func WithTruth(t *eval.Truth) Option { return func(c *config) { c.truth = t } }

// WithBaselineCurve supplies the baseline's measured P/R curve
// directly — the production mode, where no ground truth exists and
// S1's effectiveness is known from a prior evaluation or from the
// literature (Section 4.1 of the paper). The curve's points must align
// one-to-one with the service thresholds. When both truth and a curve
// are configured, the explicit curve wins and no baseline run is
// needed for bounds.
func WithBaselineCurve(curve eval.Curve) Option { return func(c *config) { c.s1Curve = curve } }

// WithHGuess fixes |H| (the unknown number of correct answers) for
// bounds computed from a baseline curve. Without it |H| is derived
// from the full curve (eval.Curve.ImpliedH), which fails only when the
// whole curve never reaches positive recall. Ignored when WithTruth is
// set (truth knows |H| exactly).
func WithHGuess(h int) Option { return func(c *config) { c.hGuess = h } }

// WithBaseline sets the registry spec of the exhaustive baseline
// system the service runs for S1 answers ("exhaustive", "parallel",
// "parallel:4"). The default is "parallel". Non-exhaustive specs are
// rejected by NewService — the bounds technique is only sound against
// an exhaustive baseline.
func WithBaseline(spec string) Option { return func(c *config) { c.baseline = spec } }

// WithSessionCacheSize bounds how many per-personal-schema sessions
// (cost tables + baseline answers) the service retains, LRU-evicted.
// Values < 1 select the default.
func WithSessionCacheSize(n int) Option { return func(c *config) { c.maxSessions = n } }

// WithShards gives the service a default shard count k for
// scatter-gather search: "sharded" specs without an explicit count
// resolve to k, and — unless WithBaseline overrides it — the service
// baseline becomes "sharded:k" (scatter-gather exhaustive search,
// which returns exactly the exhaustive answer set with the shards
// searched in parallel). Sharded specs with their own count
// ("sharded:2:beam:8") work with or without this option; each distinct
// count gets its own lazily built, incrementally maintained searcher
// (LRU-bounded), and counts beyond the repository's schema count are
// clamped to it (the extra shards could only be empty). Values < 1
// leave the service unsharded.
func WithShards(k int) Option { return func(c *config) { c.shards = k } }

// WithCandidateIndex enables candidate pruning: the service builds an
// inverted q-gram index (internal/candindex) over each repository
// generation — maintained incrementally across Update like the
// clustered index — and builds per-session cost tables through it, so
// node pairs (and whole schemas) provably irrelevant within the
// pruning horizon are never scored. Answer sets for requests with
// Delta at most the horizon are bit-identical to unfiltered serving;
// requests above the horizon transparently fall back to an unfiltered
// problem built lazily per session. horizon values ≤ 0 select the
// service's MaxDelta, making every servable request exact. Result.Stats
// gains Candidates telemetry (pairs pruned, pruning ratio, bound
// floor).
//
// The option requires a scorer that exposes its metric (engine's
// KernelScorer does); NewService fails otherwise,
// because bounds derived for one metric are unsound for another.
func WithCandidateIndex(horizon float64) Option {
	return func(c *config) { c.candidates = true; c.candHorizon = horizon }
}

// WithShardStrategy selects how schemas are partitioned across shards:
// "hash" (the default — stable name hash, balanced in expectation) or
// "cluster" (k-medoids over element names; similar schemas co-locate,
// tightening each shard's name population at the cost of possible
// imbalance). The cluster strategy shares the service scorer and the
// index seed, so partitioning is deterministic per repository.
func WithShardStrategy(name string) Option { return func(c *config) { c.shardStrategy = name } }

// Service is a long-lived matching front-end over one repository: it
// owns the shared scoring engine, lazily builds and caches the
// clustered index, caches per-personal-schema problems and baseline
// answer sets, and serves concurrent Match calls. The repository is
// held as an immutable versioned snapshot; Update swaps in a mutated
// snapshot atomically while in-flight requests finish against the one
// they started on. See the package documentation for the full
// concurrency and lifecycle contract.
type Service struct {
	matchCfg    matching.Config
	indexCfg    clustered.IndexConfig
	thresholds  []float64
	truth       *eval.Truth
	s1Curve     eval.Curve
	hGuess      int
	baseline    Spec
	maxSessions int
	// shardK is the default shard count of "sharded" specs (0 = none);
	// shardStrategy names the partitioning strategy ("hash"/"cluster").
	shardK        int
	shardStrategy string

	// candOn enables candidate-filtered table builds at candHorizon;
	// candMetric is the scorer's metric, the ground truth the index's
	// bounds are derived from.
	candOn      bool
	candHorizon float64
	candMetric  similarity.Metric

	scorer engine.Scorer
	// counter is scorer when it counts its work (engine.KernelScorer
	// does) — the source of Stats.Cache and CacheStats.
	counter statsScorer

	// store, when set, receives every Update's diff after the in-memory
	// swap (WithStore); nil services are purely in-memory.
	store TenantStore

	// state is the current serving state (snapshot + lazily built
	// index). Requests load it once at entry and never observe a
	// mid-request swap; Update is the only writer, serialized by
	// updateMu.
	state    atomic.Pointer[serviceState]
	updateMu sync.Mutex

	mu       sync.Mutex
	sessions *lru.Map[sessionKey, *session]
}

// maxSearchers bounds how many distinct shard counts' scatter-gather
// searchers one serving generation keeps resident (LRU-evicted beyond
// it). Each searcher holds per-shard sub-snapshots and derived indexes,
// and the shard count comes from client-supplied specs — without a
// bound, varied (or adversarial) "sharded:K" traffic would accumulate
// one searcher per distinct K for the life of the generation.
const maxSearchers = 4

// serviceState is one immutable serving generation of a Service: a
// repository snapshot plus the cluster index over it, built lazily on
// the first clustered request (Update pre-seeds it incrementally when
// the previous generation had one built).
type serviceState struct {
	snap *xmlschema.Snapshot
	// gen is the service-local swap generation keying the session
	// cache. It is not the snapshot Version: a service may adopt a
	// snapshot from another lineage (Server fast-forward), so only the
	// generation is guaranteed unique per service.
	gen uint64

	index lazy.Cell[*clustered.Index]

	// cand is the generation's candidate index, built lazily on the
	// first problem build when WithCandidateIndex is on (Update pre-
	// seeds it incrementally from the previous generation's).
	cand lazy.Cell[*candindex.Index]

	// searchers holds the generation's scatter-gather searchers, one
	// per requested shard count, built lazily on the first sharded
	// request with that count and LRU-bounded by maxSearchers. Update
	// derives the next generation's searchers incrementally
	// (shard.Searcher.Apply), rebuilding only the shards the snapshot
	// diff touched.
	shMu      sync.Mutex
	searchers *lru.Map[int, *lazy.Cell[*shard.Searcher]]
}

// searcherFor returns the generation's k-shard searcher, building it on
// first use (concurrent callers share one build; an evicted count is
// simply rebuilt on its next request).
func (st *serviceState) searcherFor(s *Service, k int) (*shard.Searcher, error) {
	st.shMu.Lock()
	if st.searchers == nil {
		st.searchers = lru.New[int, *lazy.Cell[*shard.Searcher]](maxSearchers)
	}
	slot, ok := st.searchers.Get(k)
	if !ok {
		slot = &lazy.Cell[*shard.Searcher]{}
		st.searchers.Put(k, slot)
	}
	st.shMu.Unlock()
	return slot.Do(func() (*shard.Searcher, error) {
		return shard.NewSearcher(st.snap, s.shardConfig(st, k))
	})
}

// builtSearchers returns the generation's completed, healthy searchers
// in LRU order (least recently used first).
func (st *serviceState) builtSearchers() (counts []int, searchers []*shard.Searcher) {
	st.shMu.Lock()
	defer st.shMu.Unlock()
	if st.searchers == nil {
		return nil, nil
	}
	st.searchers.Each(func(k int, sl *lazy.Cell[*shard.Searcher]) {
		if sr, err, done := sl.Built(); done && err == nil && sr != nil {
			counts = append(counts, k)
			searchers = append(searchers, sr)
		}
	})
	return counts, searchers
}

// indexOf returns the state's cluster index, building it on first use.
func (st *serviceState) indexOf(s *Service) (*clustered.Index, error) {
	return st.index.Do(func() (*clustered.Index, error) {
		cfg := s.indexCfg
		if cfg.Scorer == nil {
			cfg.Scorer = s.scorer
		}
		return clustered.BuildIndex(st.snap.Repository(), cfg)
	})
}

// builtIndex returns the index if a build already completed, without
// triggering one.
func (st *serviceState) builtIndex() (*clustered.Index, error, bool) {
	return st.index.Built()
}

// candOf returns the state's candidate index, building it on first use.
func (st *serviceState) candOf(s *Service) (*candindex.Index, error) {
	return st.cand.Do(func() (*candindex.Index, error) {
		cfg := candindex.Config{Metric: s.candMetric}
		// Share the scorer's profile interner when it exposes one, so
		// the index and the scoring kernels profile each name once.
		if pr, ok := s.scorer.(interface {
			Profiles() *similarity.Interner
		}); ok {
			cfg.Profiles = pr.Profiles()
		}
		return candindex.Build(st.snap.Repository(), cfg)
	})
}

// builtCand returns the candidate index if a build already completed,
// without triggering one.
func (st *serviceState) builtCand() (*candindex.Index, error, bool) {
	return st.cand.Built()
}

// sessionKey identifies a session: the personal schema pointer plus
// the serving generation it was built against. A snapshot swap retires
// a whole generation of keys at once (Update rebases the warm ones
// into the new generation and drops the rest by predicate).
type sessionKey struct {
	personal *xmlschema.Schema
	gen      uint64
}

// session is the cached per-personal-schema state: the matching
// problem (cost tables) and, when bounds are served, the baseline
// answer set and curve. Baseline builds are singleflighted: one caller
// runs the baseline, concurrent callers wait on done or their own ctx.
// A session is bound to the serving state it was created under; it
// stays valid for requests pinned to that state even after a swap.
type session struct {
	personal *xmlschema.Schema
	st       *serviceState

	// prob is the session's problem (cost tables), built by its first
	// request; concurrent requests wait for it or their own ctx.
	prob lazy.Cell[*matching.Problem]
	// wide is the unfiltered problem serving requests above the
	// candidate pruning horizon, built lazily on the first such request
	// (never populated on services without WithCandidateIndex — prob is
	// already exact everywhere there).
	wide lazy.Cell[*matching.Problem]

	// mu guards the baseline fields.
	mu      sync.Mutex
	baseSet *matching.AnswerSet
	// baseScores indexes baseSet (mapping key → score), built once so
	// per-request containment checks never rebuild it.
	baseScores map[string]float64
	baseCurve  eval.Curve
	baseBuild  chan struct{} // non-nil while a baseline build is in flight
}

// NewService builds a matching service over repo. The repository is
// wrapped in a version-1 snapshot and sealed: direct Repository.Add
// calls fail from then on, and all mutation goes through
// Service.Update (or Server.UpdateTenant), which is cheap, race-free,
// and keeps warm caches for the unchanged schemas. Option values must
// not be mutated after construction.
func NewService(repo *xmlschema.Repository, opts ...Option) (*Service, error) {
	if repo == nil {
		return nil, fmt.Errorf("match: nil repository")
	}
	return newService(func() (*xmlschema.Snapshot, error) {
		return xmlschema.NewSnapshot(repo)
	}, opts...)
}

// newService is the shared constructor body: snapFn supplies the
// initial snapshot (freshly sealed by NewService, pre-existing for
// NewServiceFromSnapshot) and is called only after the options
// validated.
func newService(snapFn func() (*xmlschema.Snapshot, error), opts ...Option) (*Service, error) {
	cfg := config{maxSessions: defaultMaxSessions}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shardStrategy != "" {
		if _, err := shard.ParseStrategy(cfg.shardStrategy); err != nil {
			return nil, fmt.Errorf("match: %w", err)
		}
	}
	// The default baseline: sharded scatter-gather exhaustive search
	// when the service is shard-configured (same answer set, shards in
	// parallel), the parallel exhaustive system otherwise.
	if cfg.baseline == "" {
		if cfg.shards > 0 {
			cfg.baseline = fmt.Sprintf("sharded:%d", cfg.shards)
		} else {
			cfg.baseline = "parallel"
		}
	}
	// A zero-weight config (including the no-option case) selects the
	// defaults, preserving any scorer set inside it — mirroring core.
	mcfg := cfg.match
	if mcfg.NameWeight == 0 && mcfg.StructWeight == 0 {
		scorer := mcfg.Scorer
		mcfg = matching.DefaultConfig()
		mcfg.Scorer = scorer
	}
	scorer := cfg.scorer
	if scorer == nil {
		scorer = mcfg.Scorer
	}
	if scorer == nil {
		scorer = engine.New(nil)
	}
	mcfg.Scorer = scorer
	thresholds := cfg.thresholds
	if thresholds == nil {
		thresholds = eval.Thresholds(0, 0.45, 15)
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("match: empty threshold grid")
	}
	for i := 1; i < len(thresholds); i++ {
		if thresholds[i] <= thresholds[i-1] {
			return nil, fmt.Errorf("match: thresholds not strictly ascending at %d", i)
		}
	}
	if cfg.s1Curve != nil && len(cfg.s1Curve) != len(thresholds) {
		return nil, fmt.Errorf("match: baseline curve has %d points for %d thresholds",
			len(cfg.s1Curve), len(thresholds))
	}
	baseSpec, err := Parse(cfg.baseline)
	if err != nil {
		return nil, fmt.Errorf("match: baseline: %w", err)
	}
	if !baseSpec.Exhaustive() {
		return nil, fmt.Errorf("match: baseline %q is not an exhaustive system", cfg.baseline)
	}
	// A countless sharded baseline with no WithShards default would
	// fail on the first baseline run; surface the misconfiguration at
	// construction like every other invalid baseline.
	if baseSpec.Family == FamilySharded && baseSpec.Shards == 0 && cfg.shards < 1 {
		return nil, fmt.Errorf("match: baseline %q has no shard count (use \"sharded:K\" or WithShards)", cfg.baseline)
	}
	if cfg.maxSessions < 1 {
		cfg.maxSessions = defaultMaxSessions
	}
	snap, err := snapFn()
	if err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	if cfg.shards < 1 {
		cfg.shards = 0 // values < 1 leave the service unsharded
	}
	var candMetric similarity.Metric
	candHorizon := 0.0
	if cfg.candidates {
		ms, ok := scorer.(interface{ Metric() similarity.Metric })
		if !ok {
			return nil, fmt.Errorf("match: WithCandidateIndex requires a scorer that exposes its metric (engine.KernelScorer)")
		}
		candMetric = ms.Metric()
		candHorizon = cfg.candHorizon
		if !(candHorizon > 0) {
			candHorizon = thresholds[len(thresholds)-1]
		}
	}
	s := &Service{
		matchCfg:      mcfg,
		indexCfg:      cfg.indexCfg,
		thresholds:    thresholds,
		truth:         cfg.truth,
		s1Curve:       cfg.s1Curve,
		hGuess:        cfg.hGuess,
		baseline:      baseSpec,
		maxSessions:   cfg.maxSessions,
		shardK:        cfg.shards,
		shardStrategy: cfg.shardStrategy,
		candOn:        cfg.candidates,
		candHorizon:   candHorizon,
		candMetric:    candMetric,
		scorer:        scorer,
		store:         cfg.store,
		sessions:      lru.New[sessionKey, *session](cfg.maxSessions),
	}
	s.state.Store(&serviceState{snap: snap})
	s.counter, _ = scorer.(statsScorer)
	return s, nil
}

// currentState returns the serving state new requests pin to.
func (s *Service) currentState() *serviceState { return s.state.Load() }

// Repository returns the repository the service currently matches
// against (the current snapshot's sealed repository).
func (s *Service) Repository() *xmlschema.Repository {
	return s.currentState().snap.Repository()
}

// Snapshot returns the current repository snapshot. Older snapshots
// stay valid for requests already in flight against them.
func (s *Service) Snapshot() *xmlschema.Snapshot { return s.currentState().snap }

// Version returns the current snapshot's version.
func (s *Service) Version() uint64 { return s.currentState().snap.Version() }

// Scorer returns the shared scoring engine every stage draws from.
func (s *Service) Scorer() engine.Scorer { return s.scorer }

// Thresholds returns the service's δ grid (callers must not modify).
func (s *Service) Thresholds() []float64 { return s.thresholds }

// statsScorer is a scorer that counts its work.
type statsScorer interface {
	Stats() engine.Stats
}

// CacheStats returns the cumulative work of the service's scorer —
// pairs scored, as engine.Stats.Misses — across everything the
// service ran so far. It reports ok = false when the scorer keeps no
// counters.
func (s *Service) CacheStats() (st engine.Stats, ok bool) {
	if s.counter == nil {
		return engine.Stats{}, false
	}
	return s.counter.Stats(), true
}

// MaxDelta returns the baseline horizon: the top of the threshold
// grid, up to which baseline answers are cached and bounds served.
func (s *Service) MaxDelta() float64 { return s.thresholds[len(s.thresholds)-1] }

// Index returns the current state's clustered index, building it on
// first use (concurrent callers share one build). An index is
// permanent for its serving generation; Update derives the next
// generation's index incrementally from it.
func (s *Service) Index() (*clustered.Index, error) {
	return s.currentState().indexOf(s)
}

// Matcher resolves a registry spec string into a ready matcher bound
// to this service's current index and scorer. The returned matcher's
// Name() is the canonical form of spec. Specs that need no service
// state (exhaustive, parallel, beam, topk) resolve even on a nil
// receiver — they are plain constructors.
func (s *Service) Matcher(spec string) (matching.Matcher, error) {
	sp, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	var st *serviceState
	if s != nil {
		st = s.currentState()
	}
	return s.build(st, sp)
}

// build constructs the matcher for a parsed spec against one serving
// state.
func (s *Service) build(st *serviceState, sp Spec) (matching.Matcher, error) {
	switch sp.Family {
	case FamilyExhaustive:
		return matching.Exhaustive{}, nil
	case FamilyParallel:
		return matching.ParallelExhaustive{Workers: sp.Workers}, nil
	case FamilyBeam:
		return beam.New(sp.Width)
	case FamilyTopk:
		return topk.New(sp.Margin)
	case FamilyClustered:
		if st == nil {
			return nil, fmt.Errorf("match: clustered spec needs a service-backed index")
		}
		ix, err := st.indexOf(s)
		if err != nil {
			return nil, err
		}
		top := sp.Top
		if top == 0 {
			top = ix.K()/6 + 1
		}
		return clustered.New(ix, top, s.scorer)
	case FamilySharded:
		if st == nil {
			return nil, fmt.Errorf("match: sharded spec needs a service-backed searcher")
		}
		k := sp.Shards
		if k == 0 {
			k = s.shardK
		}
		if k < 1 {
			return nil, fmt.Errorf("match: spec %q: no shard count (use \"sharded:K\" or WithShards)", sp.String())
		}
		// Shards beyond the schema count can only be empty, so the
		// count is clamped: the answer set is unchanged (shards
		// partition the schemas either way) and a client-supplied
		// "sharded:1000000000" cannot make the service allocate a
		// billion shard structures. The resolved spec reports the
		// effective count.
		if n := st.snap.Len(); k > n {
			k = n
		}
		sr, err := st.searcherFor(s, k)
		if err != nil {
			return nil, err
		}
		inner := Spec{Family: FamilyExhaustive}
		if sp.Inner != "" {
			if inner, err = Parse(sp.Inner); err != nil {
				return nil, err
			}
		}
		resolved := sp
		resolved.Shards = k
		return &shardedMatcher{sr: sr, sp: resolved, inner: inner}, nil
	default:
		return nil, fmt.Errorf("match: unknown matcher family %q", sp.Family)
	}
}

// shardConfig assembles the shard.Config of one serving generation's
// k-shard searcher: the partitioning strategy shares the service scorer
// and the index seed, and the searcher adopts the generation's own
// unsharded clustered index as the repository-wide clustering shard
// indexes derive from — the quadratic clustering is paid once, and
// sharded clustered search agrees bit-for-bit with the unsharded
// clustered matcher of the same generation because both select against
// the very same medoid set.
func (s *Service) shardConfig(st *serviceState, k int) shard.Config {
	ixCfg := s.indexCfg
	if ixCfg.Scorer == nil {
		ixCfg.Scorer = s.scorer
	}
	var strat shard.Strategy
	if parsed, err := shard.ParseStrategy(s.shardStrategy); err == nil {
		if _, ok := parsed.(shard.Cluster); ok {
			strat = shard.Cluster{Scorer: s.scorer, Seed: s.indexCfg.Seed}
		} else {
			strat = parsed
		}
	}
	scfg := shard.Config{
		K:           k,
		Strategy:    strat,
		Index:       ixCfg,
		GlobalIndex: func() (*clustered.Index, error) { return st.indexOf(s) },
	}
	if s.candOn {
		scfg.GlobalCandidates = func() (*candindex.Index, error) { return st.candOf(s) }
	}
	return scfg
}

// session returns (creating if needed) the cache entry for personal in
// the given serving generation, updating LRU order and evicting the
// stalest entry beyond the bound.
func (s *Service) session(st *serviceState, personal *xmlschema.Schema) *session {
	k := sessionKey{personal: personal, gen: st.gen}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sessions.Get(k); ok {
		return e
	}
	e := &session{personal: personal, st: st}
	// Cache only for the current generation: a request (or batch group)
	// still pinned to a retired state gets a working one-off session,
	// but must not re-populate keys Update already swept — that would
	// pollute the cache and could evict freshly rebased sessions.
	if st == s.state.Load() {
		s.sessions.Put(k, e)
	}
	return e
}

// Problem returns the cached matching problem for personal against the
// current snapshot, building its cost tables on first use.
// Construction is deterministic and not cancellable (it is bounded by
// corpus size, unlike search).
func (s *Service) Problem(personal *xmlschema.Schema) (*matching.Problem, error) {
	return s.problemAt(context.Background(), s.currentState(), personal)
}

func (s *Service) problemAt(ctx context.Context, st *serviceState, personal *xmlschema.Schema) (*matching.Problem, error) {
	if personal == nil || personal.Len() == 0 {
		return nil, fmt.Errorf("match: empty personal schema")
	}
	return s.problem(ctx, s.session(st, personal))
}

func (s *Service) problem(ctx context.Context, e *session) (*matching.Problem, error) {
	return e.prob.DoContext(ctx, func() (*matching.Problem, error) {
		cfg := s.matchCfg
		if s.candOn {
			// A candidate index build failure degrades to unfiltered
			// serving instead of failing requests on an optimization.
			if ix, err := e.st.candOf(s); err == nil {
				cfg.Candidates = ix
				cfg.CandidateDelta = s.candHorizon
			}
		}
		return matching.NewProblemContext(ctx, e.personal, e.st.snap.Repository(), cfg)
	})
}

// problemFor returns the session problem that is provably exact at
// delta: the (possibly candidate-filtered) default problem within the
// pruning horizon, or the lazily built unfiltered one above it.
func (s *Service) problemFor(ctx context.Context, e *session, delta float64) (*matching.Problem, error) {
	prob, err := s.problem(ctx, e)
	if err != nil || prob.ExactWithin(delta) {
		return prob, err
	}
	return e.wide.DoContext(ctx, func() (*matching.Problem, error) {
		return matching.NewProblemContext(ctx, e.personal, e.st.snap.Repository(), s.matchCfg)
	})
}

// Baseline returns the cached baseline (S1) answer set for personal at
// the service's maximum threshold, running the baseline system on
// first use, plus the baseline's measured P/R curve when the service
// has ground truth (nil otherwise). Concurrent first calls share one
// run; a caller whose ctx ends while waiting gets ctx.Err() without
// aborting the shared run.
func (s *Service) Baseline(ctx context.Context, personal *xmlschema.Schema) (*matching.AnswerSet, eval.Curve, error) {
	if personal == nil || personal.Len() == 0 {
		return nil, nil, fmt.Errorf("match: empty personal schema")
	}
	return s.baselineFor(ctx, s.session(s.currentState(), personal))
}

func (s *Service) baselineFor(ctx context.Context, e *session) (*matching.AnswerSet, eval.Curve, error) {
	for {
		e.mu.Lock()
		if e.baseSet != nil {
			set, curve := e.baseSet, e.baseCurve
			e.mu.Unlock()
			return set, curve, nil
		}
		if e.baseBuild == nil {
			ch := make(chan struct{})
			e.baseBuild = ch
			e.mu.Unlock()
			var (
				set   *matching.AnswerSet
				curve eval.Curve
				err   error
			)
			func() {
				// The deferred cleanup runs even if the build panics,
				// so a recovered panic upstream never wedges waiters
				// on a channel that will not close.
				defer func() {
					var scores map[string]float64
					if err == nil && set != nil {
						scores = set.ScoreMap()
					}
					e.mu.Lock()
					if err == nil && set != nil {
						e.baseSet, e.baseScores, e.baseCurve = set, scores, curve
					}
					e.baseBuild = nil
					e.mu.Unlock()
					close(ch)
				}()
				set, curve, err = s.runBaseline(ctx, e)
			}()
			return set, curve, err
		}
		ch := e.baseBuild
		e.mu.Unlock()
		select {
		case <-ch:
			// The in-flight build finished (or failed under its own
			// ctx); loop to read the result or become the builder.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

func (s *Service) runBaseline(ctx context.Context, e *session) (*matching.AnswerSet, eval.Curve, error) {
	prob, err := s.problemFor(ctx, e, s.MaxDelta())
	if err != nil {
		return nil, nil, err
	}
	m, err := s.build(e.st, s.baseline)
	if err != nil {
		return nil, nil, err
	}
	set, err := m.MatchContext(ctx, prob, s.MaxDelta())
	if err != nil {
		return nil, nil, err
	}
	curve, err := s.measureBaseline(set)
	if err != nil {
		return nil, nil, err
	}
	return set, curve, nil
}

// measureBaseline returns the baseline's curve against the configured
// truth (nil curve without truth).
func (s *Service) measureBaseline(set *matching.AnswerSet) (eval.Curve, error) {
	if s.truth == nil {
		return nil, nil
	}
	curve := eval.MeasuredCurve(set, s.truth, s.thresholds)
	if err := eval.CheckCurve(curve); err != nil {
		return nil, fmt.Errorf("match: baseline curve invalid: %w", err)
	}
	return curve, nil
}

// seedBaseline adopts an exhaustive-family answer set computed at
// exactly the baseline horizon as the session's baseline: any
// exhaustive system produces A_S1(MaxDelta), so a later bounds request
// need not run it again. No-op when a baseline exists or is in flight.
func (s *Service) seedBaseline(e *session, set *matching.AnswerSet) {
	e.mu.Lock()
	busy := e.baseSet != nil || e.baseBuild != nil
	e.mu.Unlock()
	if busy {
		return
	}
	curve, err := s.measureBaseline(set)
	if err != nil {
		return // leave unseeded; a real baseline run will surface it
	}
	scores := set.ScoreMap()
	e.mu.Lock()
	if e.baseSet == nil && e.baseBuild == nil {
		e.baseSet, e.baseScores, e.baseCurve = set, scores, curve
	}
	e.mu.Unlock()
}

// Match serves one request against the current snapshot. It is safe
// for concurrent use; see the package documentation for the
// cancellation and bounds contract. A request pins the snapshot it was
// admitted under: a concurrent Update never changes the repository a
// running request observes.
func (s *Service) Match(ctx context.Context, req Request) (*Result, error) {
	return s.matchAt(ctx, s.currentState(), req)
}

// matchAt serves one request pinned to one serving state — the batch
// path pins a whole group to a single state so a group never mixes
// snapshot versions.
func (s *Service) matchAt(ctx context.Context, st *serviceState, req Request) (*Result, error) {
	if req.Personal == nil || req.Personal.Len() == 0 {
		return nil, fmt.Errorf("match: request needs a personal schema")
	}
	if !(req.Delta >= 0) {
		return nil, fmt.Errorf("match: negative or NaN delta %v", req.Delta)
	}
	if req.Limit < 0 {
		return nil, fmt.Errorf("match: negative limit %d", req.Limit)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Resolve the system to run.
	var (
		sys     matching.Matcher
		sp      Spec
		spKnown bool
	)
	switch {
	case req.System != nil:
		sys = req.System
		if parsed, err := Parse(sys.Name()); err == nil {
			sp, spKnown = parsed, true
		}
	case req.Matcher == "":
		sp, spKnown = s.baseline, true
		m, err := s.build(st, sp)
		if err != nil {
			return nil, err
		}
		sys = m
	default:
		parsed, err := Parse(req.Matcher)
		if err != nil {
			return nil, err
		}
		m, err := s.build(st, parsed)
		if err != nil {
			return nil, err
		}
		sys, sp, spKnown = m, parsed, true
	}

	// Session build: session lookup plus — on a cold session — the
	// cost-table construction (which records its own child span).
	buildStart := time.Now()
	buildCtx, buildSpan := obs.StartSpan(ctx, "session_build")
	e := s.session(st, req.Personal)
	prob, err := s.problemFor(buildCtx, e, req.Delta)
	buildSpan.End()
	sessionBuild := time.Since(buildStart)
	if err != nil {
		return nil, err
	}

	before, counted := s.CacheStats()
	start := time.Now()
	searchCtx, searchSpan := obs.StartSpan(ctx, "search")
	searchSpan.SetStr("matcher", sys.Name())
	searchSpan.SetFloat("delta", req.Delta)
	var (
		set        *matching.AnswerSet
		search     matching.SearchStats
		shardStats *shard.Stats
	)
	switch sm := sys.(type) {
	case *shardedMatcher:
		var sst shard.Stats
		set, search, sst, err = sm.MatchShardStats(searchCtx, prob, req.Delta)
		if err == nil {
			shardStats = &sst
		}
	case matching.StatsMatcher:
		set, search, err = sm.MatchStatsContext(searchCtx, prob, req.Delta)
	default:
		set, err = sys.MatchContext(searchCtx, prob, req.Delta)
	}
	if searchSpan.Active() {
		if err == nil {
			searchSpan.SetInt("answers", int64(set.Len()))
		}
		if cs, ok := prob.CandidateStats(); ok {
			searchSpan.SetInt("pairs_pruned", cs.Pruned)
			searchSpan.SetInt("schemas_skipped", int64(cs.SkippedSchemas))
		}
		if shardStats != nil {
			searchSpan.SetInt("shards", int64(shardStats.Shards))
		}
	}
	searchSpan.End()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Set: set,
		Stats: Stats{
			Matcher:      sys.Name(),
			Wall:         wall,
			Search:       search,
			Sharded:      shardStats,
			Answers:      set.Len(),
			SessionBuild: sessionBuild,
		},
	}
	if counted {
		after, _ := s.CacheStats()
		res.Stats.Cache = after.Sub(before)
		searchSpan.SetInt("pairs_scored", res.Stats.Cache.Misses)
	}
	if cs, ok := prob.CandidateStats(); ok {
		res.Stats.Candidates = &cs
	}
	if req.Limit > 0 {
		res.Answers = set.TopN(req.Limit)
	} else {
		res.Answers = set.All()
	}

	// Attach guaranteed bounds when the request ran a non-exhaustive
	// system, a baseline effectiveness source is configured, and the
	// request's δ lies within the baseline horizon.
	nonExhaustive := !spKnown || !sp.Exhaustive()
	// Seeding trusts exhaustiveness, so it is reserved for matchers the
	// service built itself — a caller-supplied System whose Name()
	// merely claims an exhaustive spec must not become everyone's S1.
	if req.System == nil && !nonExhaustive && req.Delta == s.MaxDelta() {
		s.seedBaseline(e, set)
	}
	if nonExhaustive && (s.truth != nil || s.s1Curve != nil) && req.Delta <= s.MaxDelta()+matching.ThresholdEps {
		boundsStart := time.Now()
		boundsCtx, boundsSpan := obs.StartSpan(ctx, "baseline_wait")
		b, err := s.boundsFor(boundsCtx, e, set, req.Delta)
		boundsSpan.End()
		res.Stats.BaselineWait = time.Since(boundsStart)
		if err != nil {
			return nil, err
		}
		res.Bounds = b
	}
	return res, nil
}

// boundsFor computes the incremental effectiveness bounds of answer
// set `set` over the threshold prefix ≤ delta.
func (s *Service) boundsFor(ctx context.Context, e *session, set *matching.AnswerSet, delta float64) (bounds.Curve, error) {
	// The threshold prefix the request's δ covers.
	k := 0
	for k < len(s.thresholds) && s.thresholds[k] <= delta+matching.ThresholdEps {
		k++
	}
	if k == 0 {
		return nil, nil // δ below the first grid point: nothing to bound
	}
	ts := s.thresholds[:k]

	var s1Curve eval.Curve
	var hOverride int
	switch {
	case s.s1Curve != nil:
		s1Curve = s.s1Curve[:k]
		// |H| precedence in curve mode: exact truth when configured,
		// then the explicit guess, then derivation from the FULL curve
		// (a low-δ prefix may never reach positive recall even though
		// the whole curve does).
		switch {
		case s.truth != nil:
			hOverride = s.truth.Size()
		case s.hGuess > 0:
			hOverride = s.hGuess
		default:
			hOverride = s.s1Curve.ImpliedH()
		}
	default:
		if _, _, err := s.baselineFor(ctx, e); err != nil {
			return nil, err
		}
		e.mu.Lock()
		baseScores, baseCurve := e.baseScores, e.baseCurve
		e.mu.Unlock()
		// The improvement guarantee requires A_S2 ⊆ A_S1 with equal
		// scores; a violation means the system does not share the
		// objective function and no bound holds.
		if err := set.SubsetOfScores(baseScores); err != nil {
			return nil, fmt.Errorf("match: not a valid improvement of the baseline: %w", err)
		}
		s1Curve = baseCurve[:k]
		hOverride = s.truth.Size()
	}
	sizes2 := make([]int, k)
	for i, d := range ts {
		sizes2[i] = set.CountAt(d)
	}
	b, err := bounds.Incremental(bounds.Input{S1: s1Curve, Sizes2: sizes2, HOverride: hOverride})
	if err != nil {
		return nil, fmt.Errorf("match: computing bounds: %w", err)
	}
	return b, nil
}
