package matchers_test

// Frozen-reference differential test for the flat search kernel. The
// ref* functions below are verbatim copies of the pointer-walking
// searches the kernel replaced (the Walk/Depth enumeration, topk's own
// depth-first search, beam's sort-every-level expansion, and the
// comparator-built answer ordering). Every family must reproduce them
// exactly: the same answers in the same order with bit-identical scores.
//
// The kernel also cuts branches on an admissible per-schema bound, which
// changes Candidates and Pruned but nothing else. Its SearchStats are
// pinned exactly against refEnumerateBounded, the frozen enumeration
// plus that cut, and beam's against the frozen beam with the bound's
// schema skip; both compute the bound on their own from
// Problem.NameCost (refBound).

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// ---- frozen reference implementations ----

func refEnumerate(p *matching.Problem, s *xmlschema.Schema, delta float64, allowed func(pid, rid int) bool, yield func(matching.Mapping, float64)) matching.SearchStats {
	var st matching.SearchStats
	if p.CandidateSkip(s.Name, delta) {
		return st
	}
	m := p.M()
	targets := make([]int, m)
	used := make([]bool, s.Len())
	var assign func(pid int, cost float64)
	assign = func(pid int, cost float64) {
		if pid == m {
			st.Yielded++
			yield(matching.Mapping{Schema: s.Name, Targets: append([]int(nil), targets...)}, cost)
			return
		}
		par := p.ParentOf(pid)
		try := func(re *xmlschema.Element) {
			rid := re.ID()
			if used[rid] {
				return
			}
			if allowed != nil && !allowed(pid, rid) {
				return
			}
			st.Candidates++
			c := cost + p.NameCost(s, pid, rid)
			if par >= 0 {
				parentImg := s.ByID(targets[par])
				c += p.EdgeCost(re.Depth() - parentImg.Depth())
			}
			if c > delta+1e-12 {
				st.Pruned++
				return
			}
			used[rid] = true
			targets[pid] = rid
			assign(pid+1, c)
			used[rid] = false
		}
		if par < 0 {
			for _, re := range s.Elements() {
				try(re)
			}
			return
		}
		parentImg := s.ByID(targets[par])
		maxDepth := parentImg.Depth() + p.Config().MaxDepthStretch
		parentImg.Walk(func(re *xmlschema.Element) bool {
			if re == parentImg {
				return true
			}
			if re.Depth() > maxDepth {
				return false
			}
			try(re)
			return true
		})
	}
	assign(0, 0)
	return st
}

func refTopkSchema(p *matching.Problem, s *xmlschema.Schema, delta, margin float64, out *[]matching.Answer, st *matching.SearchStats) {
	m := p.M()
	targets := make([]int, m)
	used := make([]bool, s.Len())
	var assign func(pid int, cost float64)
	assign = func(pid int, cost float64) {
		if pid == m {
			st.Yielded++
			*out = append(*out, matching.Answer{
				Mapping: matching.Mapping{Schema: s.Name, Targets: append([]int(nil), targets...)},
				Score:   cost,
			})
			return
		}
		par := p.ParentOf(pid)
		try := func(re *xmlschema.Element) {
			rid := re.ID()
			if used[rid] {
				return
			}
			st.Candidates++
			c := cost + p.NameCost(s, pid, rid)
			if par >= 0 {
				parentImg := s.ByID(targets[par])
				c += p.EdgeCost(re.Depth() - parentImg.Depth())
			}
			remaining := float64(m - pid - 1)
			if c+margin*remaining > delta+1e-12 {
				st.Pruned++
				return
			}
			used[rid] = true
			targets[pid] = rid
			assign(pid+1, c)
			used[rid] = false
		}
		if par < 0 {
			for _, re := range s.Elements() {
				try(re)
			}
			return
		}
		parentImg := s.ByID(targets[par])
		maxDepth := parentImg.Depth() + p.Config().MaxDepthStretch
		parentImg.Walk(func(re *xmlschema.Element) bool {
			if re == parentImg {
				return true
			}
			if re.Depth() > maxDepth {
				return false
			}
			try(re)
			return true
		})
	}
	assign(0, 0)
}

// refBound is the kernel's admissible bound recomputed from
// Problem.NameCost: rest[pid] = Σ_{j ≥ pid} min_rid NameCost(s, j, rid),
// summed from the last element back, rest[m] = 0.
func refBound(p *matching.Problem, s *xmlschema.Schema) []float64 {
	m := p.M()
	rest := make([]float64, m+1)
	for j := m - 1; j >= 0; j-- {
		low := math.Inf(1)
		for rid := 0; rid < s.Len(); rid++ {
			low = min(low, p.NameCost(s, j, rid))
		}
		rest[j] = rest[j+1] + low
	}
	return rest
}

// refSkip is the bound's schema skip: no mapping into s can reach delta.
func refSkip(p *matching.Problem, s *xmlschema.Schema, delta float64, rest []float64) bool {
	return p.CandidateSkip(s.Name, delta) || rest[0] > delta+matching.ThresholdEps+matching.BoundSlack
}

// refEnumerateBounded is refEnumerate with topk's margin projection and
// the bound: a schema refSkip passes over counts nothing, and a
// candidate is also pruned when cost + rest[pid+1] > δ + ThresholdEps +
// BoundSlack.
func refEnumerateBounded(p *matching.Problem, s *xmlschema.Schema, delta, margin float64, allowed func(pid, rid int) bool, yield func(matching.Mapping, float64)) matching.SearchStats {
	var st matching.SearchStats
	rest := refBound(p, s)
	if refSkip(p, s, delta, rest) {
		return st
	}
	m := p.M()
	targets := make([]int, m)
	used := make([]bool, s.Len())
	var assign func(pid int, cost float64)
	assign = func(pid int, cost float64) {
		if pid == m {
			st.Yielded++
			yield(matching.Mapping{Schema: s.Name, Targets: append([]int(nil), targets...)}, cost)
			return
		}
		par := p.ParentOf(pid)
		try := func(re *xmlschema.Element) {
			rid := re.ID()
			if used[rid] {
				return
			}
			if allowed != nil && !allowed(pid, rid) {
				return
			}
			st.Candidates++
			c := cost + p.NameCost(s, pid, rid)
			if par >= 0 {
				parentImg := s.ByID(targets[par])
				c += p.EdgeCost(re.Depth() - parentImg.Depth())
			}
			remaining := float64(m - pid - 1)
			if c+margin*remaining > delta+matching.ThresholdEps ||
				c+rest[pid+1] > delta+matching.ThresholdEps+matching.BoundSlack {
				st.Pruned++
				return
			}
			used[rid] = true
			targets[pid] = rid
			assign(pid+1, c)
			used[rid] = false
		}
		if par < 0 {
			for _, re := range s.Elements() {
				try(re)
			}
			return
		}
		parentImg := s.ByID(targets[par])
		maxDepth := parentImg.Depth() + p.Config().MaxDepthStretch
		parentImg.Walk(func(re *xmlschema.Element) bool {
			if re == parentImg {
				return true
			}
			if re.Depth() > maxDepth {
				return false
			}
			try(re)
			return true
		})
	}
	assign(0, 0)
	return st
}

type refState struct {
	targets []int
	cost    float64
}

func refBeamSchema(p *matching.Problem, s *xmlschema.Schema, delta float64, width int, out *[]matching.Answer, st *matching.SearchStats) {
	m := p.M()
	var frontier []refState
	for _, re := range s.Elements() {
		st.Candidates++
		c := p.NameCost(s, 0, re.ID())
		if c > delta+1e-12 {
			st.Pruned++
			continue
		}
		frontier = append(frontier, refState{targets: []int{re.ID()}, cost: c})
	}
	frontier = refShrink(frontier, width)
	for pid := 1; pid < m && len(frontier) > 0; pid++ {
		par := p.ParentOf(pid)
		var next []refState
		for _, cur := range frontier {
			parentImg := s.ByID(cur.targets[par])
			maxDepth := parentImg.Depth() + p.Config().MaxDepthStretch
			parentImg.Walk(func(re *xmlschema.Element) bool {
				if re == parentImg {
					return true
				}
				if re.Depth() > maxDepth {
					return false
				}
				rid := re.ID()
				for _, t := range cur.targets {
					if t == rid {
						return true
					}
				}
				st.Candidates++
				c := cur.cost + p.NameCost(s, pid, rid) + p.EdgeCost(re.Depth()-parentImg.Depth())
				if c > delta+1e-12 {
					st.Pruned++
					return true
				}
				nt := make([]int, pid+1)
				copy(nt, cur.targets)
				nt[pid] = rid
				next = append(next, refState{targets: nt, cost: c})
				return true
			})
		}
		frontier = refShrink(next, width)
	}
	for _, cur := range frontier {
		if len(cur.targets) == m {
			st.Yielded++
			*out = append(*out, matching.Answer{
				Mapping: matching.Mapping{Schema: s.Name, Targets: cur.targets},
				Score:   cur.cost,
			})
		}
	}
}

func refShrink(states []refState, width int) []refState {
	if len(states) <= width {
		return states
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].cost != states[j].cost {
			return states[i].cost < states[j].cost
		}
		return refLessTargets(states[i].targets, states[j].targets)
	})
	return states[:width]
}

func refLessTargets(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// refOrder is the answer ordering of the frozen NewAnswerSet: sort by
// score, ties by Key() built inside the comparator, then drop repeated
// keys.
func refOrder(answers []matching.Answer) []matching.Answer {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score < answers[j].Score
		}
		return answers[i].Mapping.Key() < answers[j].Mapping.Key()
	})
	out := answers[:0]
	seen := make(map[string]bool, len(answers))
	for _, a := range answers {
		if k := a.Mapping.Key(); !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// ---- corpus ----

// parityProblem builds a problem over a synth corpus with narrow, deep
// background trees (chains longer than any tested stretch), plus tie
// schemas drawn from a tiny vocabulary (personal names and two noise
// words, so many distinct mappings score identically). Tie schema names
// ("s9", "s10", "a", "a-b") exercise the string order of answer keys.
func parityProblem(tb testing.TB, seed uint64, stretch int) *matching.Problem {
	tb.Helper()
	personal, err := synth.RandomPersonal(seed, 3+int(seed%3))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := synth.DefaultConfig(seed)
	cfg.NumSchemas, cfg.MinSize, cfg.MaxSize, cfg.MaxChildren = 10, 8, 18, 2
	sc, err := synth.Generate(personal, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	vocab := []string{"noise", "filler"}
	for _, e := range personal.Elements() {
		vocab = append(vocab, e.Name)
	}
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	for _, name := range []string{"s9", "s10", "a", "a-b"} {
		root := xmlschema.NewElement(stats.Pick(rng, vocab))
		nodes, last := []*xmlschema.Element{root}, root
		for len(nodes) < 7+rng.Intn(8) {
			parent := last // extend the chain half the time
			if rng.Bool(0.5) {
				parent = stats.Pick(rng, nodes)
			}
			last = xmlschema.NewElement(stats.Pick(rng, vocab))
			parent.Add(last)
			nodes = append(nodes, last)
		}
		s, err := xmlschema.NewSchema(name, root)
		if err != nil {
			tb.Fatal(err)
		}
		if err := sc.Repo.Add(s); err != nil {
			tb.Fatal(err)
		}
	}
	mc := matching.DefaultConfig()
	mc.MaxDepthStretch = stretch
	p, err := matching.NewProblem(personal, sc.Repo, mc)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// rejectInner allows every candidate except repository elements whose
// ID is 1 mod 3 — which rejects inner nodes while their descendants
// (higher IDs) stay allowed.
func rejectInner(pid, rid int) bool { return rid%3 != 1 }

// ---- comparison ----

func sameAnswers(tb testing.TB, what string, got, want []matching.Answer) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d answers, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Mapping.Equal(w.Mapping) || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			tb.Fatalf("%s: answer %d is %s@%v, reference %s@%v", what, i,
				g.Mapping.Key(), g.Score, w.Mapping.Key(), w.Score)
		}
	}
}

func sameStats(tb testing.TB, what string, got, want matching.SearchStats) {
	tb.Helper()
	if got != want {
		tb.Fatalf("%s: stats %+v, reference %+v", what, got, want)
	}
}

// checkKernelParity compares every family against its frozen reference
// on one problem and threshold, returning the exhaustive answer count.
// Answers are pinned to the frozen searches, SearchStats to the bounded
// references; the bound must leave Yielded alone.
func checkKernelParity(tb testing.TB, p *matching.Problem, delta float64, widths []int, margins []float64) int {
	tb.Helper()
	ctx := context.Background()
	tag := fmt.Sprintf("stretch %d δ %v", p.Config().MaxDepthStretch, delta)
	collect := func(out *[]matching.Answer) func(matching.Mapping, float64) {
		return func(m matching.Mapping, score float64) {
			*out = append(*out, matching.Answer{Mapping: m, Score: score})
		}
	}
	nop := func(matching.Mapping, float64) {}

	// The enumeration itself, per schema and in yield order, with and
	// without an allowed predicate.
	var refAll []matching.Answer
	var refAllStats matching.SearchStats
	for _, s := range p.Repo.Schemas() {
		for _, allowed := range []func(pid, rid int) bool{nil, rejectInner} {
			var got, want, bounded []matching.Answer
			gst, err := matching.EnumerateContext(ctx, p, s, delta, allowed, collect(&got))
			if err != nil {
				tb.Fatal(err)
			}
			fst := refEnumerate(p, s, delta, allowed, collect(&want))
			wst := refEnumerateBounded(p, s, delta, 0, allowed, collect(&bounded))
			what := fmt.Sprintf("%s schema %s allowed=%v", tag, s.Name, allowed != nil)
			sameAnswers(tb, what, got, want)
			sameAnswers(tb, what+" bounded reference", bounded, want)
			sameStats(tb, what, gst, wst)
			if wst.Yielded != fst.Yielded || wst.Candidates > fst.Candidates {
				tb.Fatalf("%s: bounded stats %+v against unbounded %+v", what, wst, fst)
			}
			if allowed == nil {
				refAll = append(refAll, want...)
				refAllStats.Add(wst)
			}
		}
	}
	refAll = refOrder(refAll)
	for _, m := range []matching.StatsMatcher{matching.Exhaustive{}, matching.ParallelExhaustive{Workers: 2}} {
		set, st, err := m.MatchStatsContext(ctx, p, delta)
		if err != nil {
			tb.Fatal(err)
		}
		sameAnswers(tb, tag+" "+m.Name(), set.All(), refAll)
		sameStats(tb, tag+" "+m.Name(), st, refAllStats)
	}

	for _, margin := range margins {
		tk, err := topk.New(margin)
		if err != nil {
			tb.Fatal(err)
		}
		var want []matching.Answer
		var fst, wst matching.SearchStats
		for _, s := range p.Repo.Schemas() {
			if !p.CandidateSkip(s.Name, delta) {
				refTopkSchema(p, s, delta, margin, &want, &fst)
			}
			wst.Add(refEnumerateBounded(p, s, delta, margin, nil, nop))
		}
		set, st, err := tk.MatchStatsContext(ctx, p, delta)
		if err != nil {
			tb.Fatal(err)
		}
		sameAnswers(tb, tag+" "+tk.Name(), set.All(), refOrder(want))
		sameStats(tb, tag+" "+tk.Name(), st, wst)
		if wst.Yielded != fst.Yielded {
			tb.Fatalf("%s %s: bounded reference yields %d, frozen %d", tag, tk.Name(), wst.Yielded, fst.Yielded)
		}
	}

	for _, width := range widths {
		bm, err := beam.New(width)
		if err != nil {
			tb.Fatal(err)
		}
		var want []matching.Answer
		var wst matching.SearchStats
		for _, s := range p.Repo.Schemas() {
			if p.CandidateSkip(s.Name, delta) {
				continue
			}
			var sst matching.SearchStats
			before := len(want)
			refBeamSchema(p, s, delta, width, &want, &sst)
			if refSkip(p, s, delta, refBound(p, s)) {
				if len(want) != before {
					tb.Fatalf("%s %s: the bound skips schema %s, which holds beam answers", tag, bm.Name(), s.Name)
				}
				continue
			}
			wst.Add(sst)
		}
		set, st, err := bm.MatchStatsContext(ctx, p, delta)
		if err != nil {
			tb.Fatal(err)
		}
		sameAnswers(tb, tag+" "+bm.Name(), set.All(), refOrder(want))
		sameStats(tb, tag+" "+bm.Name(), st, wst)
	}
	return len(refAll)
}

var (
	parityWidths  = []int{1, 4, 16, 64}
	parityMargins = []float64{0, 0.035, 0.1}
)

// TestSearchKernelParity pins every matcher family to its frozen
// reference over stretch 1–4, δ 0.1–0.6, beam widths 1–64 and topk
// margins 0–0.1.
func TestSearchKernelParity(t *testing.T) {
	answers := 0
	for _, seed := range []uint64{3, 7, 5} { // personals of 3, 4 and 5 elements
		for stretch := 1; stretch <= 4; stretch++ {
			p := parityProblem(t, seed, stretch)
			for _, delta := range []float64{0.1, 0.25, 0.4, 0.6} {
				answers += checkKernelParity(t, p, delta, parityWidths, parityMargins)
			}
		}
	}
	if answers == 0 {
		t.Fatal("the grid produced no answers; the corpus is too hard to pin anything")
	}
}

// FuzzSearchKernelParity explores the same comparison over corpus seed,
// stretch, threshold, beam width and topk margin. deltaMilli%600 sets δ
// in thousandths above 0.05; a quotient k = deltaMilli/600 > 0 instead
// puts δ exactly on a score, that of exhaustive answer (k-1) mod |A| at
// the thousandths δ, so the threshold sits where the bound cuts closest.
func FuzzSearchKernelParity(f *testing.F) {
	for _, seed := range []uint64{3, 7, 5} {
		for stretch := uint8(1); stretch <= 4; stretch++ {
			f.Add(seed, stretch, uint16(100*stretch+50), uint8(4*stretch), uint16(35))
			// Boundary seeds at δ 0.6: δ on the cheapest answer, on the
			// seventh, and on answer 108 mod |A|.
			for _, k := range []uint16{1, 7, 65535 / 600} {
				f.Add(seed, stretch, 600*k+550, uint8(4*stretch), uint16(35))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, stretch uint8, deltaMilli uint16, width uint8, marginMilli uint16) {
		p := parityProblem(t, seed%64, 1+int(stretch%4))
		delta := 0.05 + float64(deltaMilli%600)/1000
		if k := int(deltaMilli / 600); k > 0 {
			set, err := matching.Exhaustive{}.Match(p, delta)
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() > 0 {
				delta = set.All()[(k-1)%set.Len()].Score
			}
		}
		margin := float64(marginMilli%150) / 1000
		checkKernelParity(t, p, delta, []int{1 + int(width%64)}, []float64{margin})
	})
}

// boundaryMatchers are the families that must return every answer whose
// score is exactly δ: the exhaustive ones, topk at margin 0, clustered
// selecting every cluster, and a beam wide enough never to drop a state.
func boundaryMatchers(tb testing.TB, p *matching.Problem) []matching.StatsMatcher {
	tb.Helper()
	tk, err := topk.New(0)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := clustered.BuildIndex(p.Repo, clustered.IndexConfig{K: 4, Seed: 1, Scorer: p.Scorer()})
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := clustered.New(ix, ix.K(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	bm, err := beam.New(1 << 30)
	if err != nil {
		tb.Fatal(err)
	}
	return []matching.StatsMatcher{matching.Exhaustive{}, matching.ParallelExhaustive{Workers: 2}, tk, cm, bm}
}

// TestSearchBoundaryDelta runs every family at δ equal to the exact
// score of each exhaustive answer at δ 0.6, and at the δ one
// ThresholdEps below it where that still admits the score: the answer
// then sits on the cut itself, where the bound's different summation
// order could round it out. It must still be returned, with the whole
// prefix A(δ) of the δ 0.6 set, bit for bit. BoundSlack is what keeps
// it.
func TestSearchBoundaryDelta(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for _, seed := range []uint64{3, 7, 5} {
		p := parityProblem(t, seed, 2)
		full, err := matching.Exhaustive{}.Match(p, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		families := boundaryMatchers(t, p)
		for i, a := range full.All() {
			if i > 0 && full.All()[i-1].Score == a.Score {
				continue // one run per distinct score covers its ties
			}
			deltas := []float64{a.Score}
			if d := a.Score - matching.ThresholdEps; d+matching.ThresholdEps >= a.Score {
				deltas = append(deltas, d)
			}
			for _, delta := range deltas {
				want := full.At(delta)
				for _, m := range families {
					set, _, err := m.MatchStatsContext(ctx, p, delta)
					if err != nil {
						t.Fatal(err)
					}
					sameAnswers(t, fmt.Sprintf("seed %d %s at δ %v (score %v)", seed, m.Name(), delta, a.Score), set.All(), want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no answers at δ 0.6; the boundary test checked nothing")
	}
}

// TestSkippedSchemaCostsNothing pins the schema skip: below a schema's
// bound the kernel returns zero SearchStats without allocating, and
// every family (beam included) passes the schema over. It also pins the
// view's bound to the one recomputed from Problem.NameCost.
func TestSkippedSchemaCostsNothing(t *testing.T) {
	ctx := context.Background()
	p := parityProblem(t, 5, 2)
	nop := func(matching.Mapping, float64) {}
	lowest := math.Inf(1)
	for _, s := range p.Repo.Schemas() {
		rest := refBound(p, s)
		v := p.View(s)
		for pid := range rest {
			if got := v.Rest(pid); math.Float64bits(got) != math.Float64bits(rest[pid]) {
				t.Fatalf("schema %s: Rest(%d) = %v, recomputed %v", s.Name, pid, got, rest[pid])
			}
		}
		lowest = min(lowest, rest[0])
		delta := rest[0] - 1e-6 // the bound exceeds δ + ThresholdEps + BoundSlack
		if !p.SkipSchema(s, delta) || p.SkipSchema(s, rest[0]) {
			t.Fatalf("schema %s: SkipSchema wrong around its bound %v", s.Name, rest[0])
		}
		st, err := matching.EnumerateContext(ctx, p, s, delta, nil, nop)
		if err != nil {
			t.Fatal(err)
		}
		if st != (matching.SearchStats{}) {
			t.Fatalf("schema %s skipped at δ %v but cost %+v", s.Name, delta, st)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			matching.EnumerateContext(ctx, p, s, delta, nil, nop)
		}); allocs != 0 {
			t.Fatalf("schema %s: a skipped enumeration allocates %v times", s.Name, allocs)
		}
	}
	// Below every schema's bound no family looks at anything.
	for _, m := range boundaryMatchers(t, p) {
		set, st, err := m.MatchStatsContext(ctx, p, lowest-1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != 0 || st != (matching.SearchStats{}) {
			t.Fatalf("%s below every bound: %d answers, stats %+v", m.Name(), set.Len(), st)
		}
	}
}

// TestBoundHalvesCandidates keeps the bound from becoming a no-op: on a
// 1 300-schema synth corpus at δ 0.3 (the big-repo shape) exhaustive
// search must examine at most half the candidates of the frozen
// unbounded enumeration, for the same answers.
func TestBoundHalvesCandidates(t *testing.T) {
	cfg := synth.DefaultConfig(1)
	cfg.NumSchemas = 1300
	fleet, err := synth.GenerateTenants(1, 1, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 0.3
	for i, personal := range fleet[0].Personals() {
		p, err := matching.NewProblem(personal, fleet[0].Repo(), matching.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var unbounded matching.SearchStats
		for _, s := range p.Repo.Schemas() {
			unbounded.Add(refEnumerate(p, s, delta, nil, func(matching.Mapping, float64) {}))
		}
		_, st, err := matching.Exhaustive{}.MatchStatsContext(context.Background(), p, delta)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("personal %d: %d candidates, %d unbounded, %d answers", i, st.Candidates, unbounded.Candidates, st.Yielded)
		if st.Yielded != unbounded.Yielded {
			t.Fatalf("personal %d: bounded search yields %d, unbounded %d", i, st.Yielded, unbounded.Yielded)
		}
		if 2*st.Candidates > unbounded.Candidates {
			t.Fatalf("personal %d: the bound kept %d of %d candidates, more than half", i, st.Candidates, unbounded.Candidates)
		}
	}
}
