package matchers_test

// Frozen-reference differential test for the flat search kernel. The
// ref* functions below are verbatim copies of the pointer-walking
// searches the kernel replaced (the Walk/Depth enumeration, topk's own
// depth-first search, beam's sort-every-level expansion, and the
// comparator-built answer ordering). Every family must reproduce them
// exactly: the same answers in the same order with bit-identical scores,
// and the same SearchStats.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/matchers/beam"
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
func checkKernelParity(tb testing.TB, p *matching.Problem, delta float64, widths []int, margins []float64) int {
	tb.Helper()
	ctx := context.Background()
	tag := fmt.Sprintf("stretch %d δ %v", p.Config().MaxDepthStretch, delta)

	// The enumeration itself, per schema and in yield order, with and
	// without an allowed predicate.
	var refAll []matching.Answer
	var refAllStats matching.SearchStats
	for _, s := range p.Repo.Schemas() {
		for _, allowed := range []func(pid, rid int) bool{nil, rejectInner} {
			var got, want []matching.Answer
			collect := func(out *[]matching.Answer) func(matching.Mapping, float64) {
				return func(m matching.Mapping, score float64) {
					*out = append(*out, matching.Answer{Mapping: m, Score: score})
				}
			}
			gst, err := matching.EnumerateContext(ctx, p, s, delta, allowed, collect(&got))
			if err != nil {
				tb.Fatal(err)
			}
			wst := refEnumerate(p, s, delta, allowed, collect(&want))
			what := fmt.Sprintf("%s schema %s allowed=%v", tag, s.Name, allowed != nil)
			sameAnswers(tb, what, got, want)
			sameStats(tb, what, gst, wst)
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
		var wst matching.SearchStats
		for _, s := range p.Repo.Schemas() {
			if !p.CandidateSkip(s.Name, delta) {
				refTopkSchema(p, s, delta, margin, &want, &wst)
			}
		}
		set, st, err := tk.MatchStatsContext(ctx, p, delta)
		if err != nil {
			tb.Fatal(err)
		}
		sameAnswers(tb, tag+" "+tk.Name(), set.All(), refOrder(want))
		sameStats(tb, tag+" "+tk.Name(), st, wst)
	}

	for _, width := range widths {
		bm, err := beam.New(width)
		if err != nil {
			tb.Fatal(err)
		}
		var want []matching.Answer
		var wst matching.SearchStats
		for _, s := range p.Repo.Schemas() {
			if !p.CandidateSkip(s.Name, delta) {
				refBeamSchema(p, s, delta, width, &want, &wst)
			}
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
// stretch, threshold, beam width and topk margin.
func FuzzSearchKernelParity(f *testing.F) {
	for _, seed := range []uint64{3, 7, 5} {
		for stretch := uint8(1); stretch <= 4; stretch++ {
			f.Add(seed, stretch, uint16(100*stretch+50), uint8(4*stretch), uint16(35))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, stretch uint8, deltaMilli uint16, width uint8, marginMilli uint16) {
		p := parityProblem(t, seed%64, 1+int(stretch%4))
		delta := 0.05 + float64(deltaMilli%600)/1000
		margin := float64(marginMilli%150) / 1000
		checkKernelParity(t, p, delta, []int{1 + int(width%64)}, []float64{margin})
	})
}
