package httpserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/xmlschema"
	"repro/match"
)

// Version is the wire-protocol version; every serving route lives
// under this path prefix.
const Version = "v1"

// Element is the wire form of one schema-tree node.
type Element struct {
	Name     string    `json:"name"`
	Type     string    `json:"type,omitempty"`
	Children []Element `json:"children,omitempty"`
}

// Schema is the wire form of a personal schema: a named tree.
type Schema struct {
	Name string  `json:"name"`
	Root Element `json:"root"`
}

// MatchRequest is the body of POST /v1/match/{tenant}.
type MatchRequest struct {
	// Personal is the personal (query) schema. Required.
	Personal *Schema `json:"personal"`
	// Delta is the answer threshold δ (finite, ≥ 0).
	Delta float64 `json:"delta"`
	// Matcher is a registry spec; empty selects the tenant's baseline.
	Matcher string `json:"matcher,omitempty"`
	// Limit truncates the returned answers (0 = all).
	Limit int `json:"limit,omitempty"`
	// Trace opts this request into span tracing: when the server has a
	// tracer, the request is traced regardless of sampling and the
	// response inlines the span breakdown (MatchResponse.Trace).
	Trace bool `json:"trace,omitempty"`
}

// BatchItem is one element of a batch: a tenant plus its request.
type BatchItem struct {
	Tenant string `json:"tenant"`
	MatchRequest
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// Answer is the wire form of one ranked mapping.
type Answer struct {
	// Schema names the repository schema the mapping points into;
	// Targets[i] is the repository element ID assigned to personal
	// element i (pre-order IDs).
	Schema  string  `json:"schema"`
	Targets []int   `json:"targets"`
	Score   float64 `json:"score"`
}

// SearchStats mirrors matching.SearchStats.
type SearchStats struct {
	Candidates int `json:"candidates"`
	Pruned     int `json:"pruned"`
	Yielded    int `json:"yielded"`
}

// CacheStats mirrors engine.Stats: Misses counts the name pairs
// scored; Hits and Entries are always 0.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// ShardStat is one shard's slice of a scatter-gather request.
type ShardStat struct {
	WallNs  int64       `json:"wall_ns"`
	Answers int         `json:"answers"`
	Search  SearchStats `json:"search"`
}

// ShardStats mirrors shard.Stats: the fan-out of one sharded request.
type ShardStats struct {
	Shards   int         `json:"shards"`
	Searched int         `json:"searched"`
	PerShard []ShardStat `json:"per_shard,omitempty"`
	MergeNs  int64       `json:"merge_ns"`
	WallNs   int64       `json:"wall_ns"`
}

// CandidateStats mirrors matching.CandidateStats: how much of the cost
// table the candidate filter proved irrelevant.
type CandidateStats struct {
	Delta          float64 `json:"delta"`
	Floor          float64 `json:"floor"`
	Pairs          int64   `json:"pairs"`
	Pruned         int64   `json:"pruned"`
	SkippedSchemas int     `json:"skipped_schemas"`
}

// Stats is the wire form of match.Stats.
type Stats struct {
	Matcher    string          `json:"matcher"`
	WallNs     int64           `json:"wall_ns"`
	Search     SearchStats     `json:"search"`
	Cache      CacheStats      `json:"cache"`
	Sharded    *ShardStats     `json:"sharded,omitempty"`
	Candidates *CandidateStats `json:"candidates,omitempty"`
	Answers    int             `json:"answers"`
	// QueueWaitNs, SessionBuildNs, and BaselineWaitNs are the request's
	// stage walls outside the search itself (see match.Stats).
	QueueWaitNs    int64 `json:"queue_wait_ns,omitempty"`
	SessionBuildNs int64 `json:"session_build_ns,omitempty"`
	BaselineWaitNs int64 `json:"baseline_wait_ns,omitempty"`
}

// BoundsPoint is the wire form of one bounds.Point.
type BoundsPoint struct {
	Delta   float64 `json:"delta"`
	Ratio   float64 `json:"ratio"`
	BestP   float64 `json:"best_p"`
	BestR   float64 `json:"best_r"`
	WorstP  float64 `json:"worst_p"`
	WorstR  float64 `json:"worst_r"`
	RandomP float64 `json:"random_p"`
	RandomR float64 `json:"random_r"`
}

// MatchResponse is the body of a successful match.
type MatchResponse struct {
	Answers []Answer      `json:"answers"`
	Stats   Stats         `json:"stats"`
	Bounds  []BoundsPoint `json:"bounds,omitempty"`
	// Trace is the inline span breakdown, present only when the request
	// set MatchRequest.Trace and the server traces.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// ErrorInfo is the machine-readable error of a failed request.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps ErrorInfo as the body of every error response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// BatchResult is one element of a batch response; exactly one of
// Response and Error is set.
type BatchResult struct {
	Response *MatchResponse `json:"response,omitempty"`
	Error    *ErrorInfo     `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/batch, results in input order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// TenantStatsResponse is the body of GET /v1/tenants/{tenant}/stats.
type TenantStatsResponse struct {
	Tenant   string     `json:"tenant"`
	Resident bool       `json:"resident"`
	InFlight int        `json:"in_flight"`
	Version  uint64     `json:"version"`
	Cache    CacheStats `json:"cache"`
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// DecodeMatchRequest decodes and validates one MatchRequest from r.
// maxElements bounds the personal schema size (≤ 0 selects
// DefaultMaxPersonalElements). It never panics on malformed input; any
// rejection maps to 400 at the handler.
func DecodeMatchRequest(r io.Reader, maxElements int) (*MatchRequest, error) {
	var req MatchRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(maxElements); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeBatchRequest decodes and validates a BatchRequest from r.
// maxRequests bounds the batch size (≤ 0 selects
// DefaultMaxBatchRequests).
func DecodeBatchRequest(r io.Reader, maxElements, maxRequests int) (*BatchRequest, error) {
	var req BatchRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if maxRequests <= 0 {
		maxRequests = DefaultMaxBatchRequests
	}
	if len(req.Requests) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(req.Requests) > maxRequests {
		return nil, fmt.Errorf("batch of %d requests exceeds the limit of %d", len(req.Requests), maxRequests)
	}
	for i := range req.Requests {
		it := &req.Requests[i]
		if it.Tenant == "" {
			return nil, fmt.Errorf("request %d: empty tenant", i)
		}
		if err := it.validate(maxElements); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return &req, nil
}

// validate enforces the wire contract on one request: a present,
// bounded personal schema, a finite non-negative δ, a non-negative
// limit, and (when given) a parseable matcher spec.
func (req *MatchRequest) validate(maxElements int) error {
	if maxElements <= 0 {
		maxElements = DefaultMaxPersonalElements
	}
	if req.Personal == nil {
		return errors.New("missing personal schema")
	}
	if req.Personal.Name == "" {
		return errors.New("personal schema has no name")
	}
	if n := req.Personal.Root.count(maxElements + 1); n > maxElements {
		return fmt.Errorf("personal schema exceeds %d elements", maxElements)
	}
	if math.IsNaN(req.Delta) || math.IsInf(req.Delta, 0) {
		return errors.New("delta must be finite")
	}
	if req.Delta < 0 {
		return errors.New("delta must be non-negative")
	}
	if req.Limit < 0 {
		return errors.New("limit must be non-negative")
	}
	if req.Matcher != "" {
		if _, err := match.Parse(req.Matcher); err != nil {
			return fmt.Errorf("matcher: %w", err)
		}
	}
	return nil
}

// count returns the subtree size, stopping early once it exceeds
// limit — a hostile deeply-or-widely nested body costs at most limit
// visits.
func (e *Element) count(limit int) int {
	n := 1
	for i := range e.Children {
		if n >= limit {
			return n
		}
		n += e.Children[i].count(limit - n)
	}
	return n
}

// Build converts the wire schema into a validated xmlschema.Schema.
func (ws *Schema) Build() (*xmlschema.Schema, error) {
	return xmlschema.NewSchema(ws.Name, toElement(&ws.Root))
}

func toElement(we *Element) *xmlschema.Element {
	e := &xmlschema.Element{Name: we.Name, Type: we.Type}
	for i := range we.Children {
		e.Children = append(e.Children, toElement(&we.Children[i]))
	}
	return e
}

// WireSchema converts a schema to its wire form (the client side of
// Build).
func WireSchema(s *xmlschema.Schema) *Schema {
	return &Schema{Name: s.Name, Root: *fromElement(s.Root())}
}

func fromElement(e *xmlschema.Element) *Element {
	we := &Element{Name: e.Name, Type: e.Type}
	for _, c := range e.Children {
		we.Children = append(we.Children, *fromElement(c))
	}
	return we
}

// key returns an unambiguous canonical encoding of the wire schema,
// the interner's identity: length-prefixed names and types in
// pre-order with explicit child grouping.
func (ws *Schema) key() string {
	var b strings.Builder
	writeToken(&b, ws.Name)
	writeElementKey(&b, &ws.Root)
	return b.String()
}

func writeToken(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func writeElementKey(b *strings.Builder, e *Element) {
	writeToken(b, e.Name)
	writeToken(b, e.Type)
	b.WriteByte('(')
	for i := range e.Children {
		writeElementKey(b, &e.Children[i])
	}
	b.WriteByte(')')
}

// buildResponse converts one in-process Result to its wire form.
func buildResponse(res *match.Result) *MatchResponse {
	out := &MatchResponse{
		Answers: make([]Answer, len(res.Answers)),
		Stats:   wireStats(res.Stats),
		Bounds:  wireBounds(res.Bounds),
	}
	for i, a := range res.Answers {
		out.Answers[i] = wireAnswer(a)
	}
	return out
}

func wireAnswer(a matching.Answer) Answer {
	targets := make([]int, len(a.Mapping.Targets))
	copy(targets, a.Mapping.Targets)
	return Answer{Schema: a.Mapping.Schema, Targets: targets, Score: a.Score}
}

func wireStats(st match.Stats) Stats {
	out := Stats{
		Matcher:        st.Matcher,
		WallNs:         st.Wall.Nanoseconds(),
		Search:         SearchStats(st.Search),
		Cache:          CacheStats{Hits: st.Cache.Hits, Misses: st.Cache.Misses, Entries: st.Cache.Entries},
		Answers:        st.Answers,
		QueueWaitNs:    st.QueueWait.Nanoseconds(),
		SessionBuildNs: st.SessionBuild.Nanoseconds(),
		BaselineWaitNs: st.BaselineWait.Nanoseconds(),
	}
	if ss := st.Sharded; ss != nil {
		ws := &ShardStats{
			Shards:   ss.Shards,
			Searched: ss.Searched,
			MergeNs:  ss.Merge.Nanoseconds(),
			WallNs:   ss.Wall.Nanoseconds(),
		}
		for _, ps := range ss.PerShard {
			ws.PerShard = append(ws.PerShard, ShardStat{
				WallNs:  ps.Wall.Nanoseconds(),
				Answers: ps.Answers,
				Search:  SearchStats(ps.Search),
			})
		}
		out.Sharded = ws
	}
	if cs := st.Candidates; cs != nil {
		out.Candidates = &CandidateStats{
			Delta:          cs.Delta,
			Floor:          cs.Floor,
			Pairs:          cs.Pairs,
			Pruned:         cs.Pruned,
			SkippedSchemas: cs.SkippedSchemas,
		}
	}
	return out
}

func wireBounds(c bounds.Curve) []BoundsPoint {
	if len(c) == 0 {
		return nil
	}
	out := make([]BoundsPoint, len(c))
	for i, p := range c {
		out[i] = BoundsPoint{
			Delta: p.Delta, Ratio: p.Ratio,
			BestP: p.BestP, BestR: p.BestR,
			WorstP: p.WorstP, WorstR: p.WorstR,
			RandomP: p.RandomP, RandomR: p.RandomR,
		}
	}
	return out
}
