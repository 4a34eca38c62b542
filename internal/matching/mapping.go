// Package matching implements the schema matching model of the
// reproduced paper (following its companion formalization, Smiljanić et
// al., DEXA 2005): a matching problem Q matches a small personal schema
// against a large repository; the search space SS is the set of schema
// mappings, each assigning every personal-schema element to one element
// of a single repository schema while preserving ancestry; mappings are
// ranked by an objective function ∆ (lower is better); the answer set
// at threshold δ contains every mapping with ∆ ≤ δ.
//
// The package provides the mapping and answer-set types shared by all
// matchers, the objective function, and the exhaustive reference system
// S1. Non-exhaustive improvements live in internal/matchers.
//
// # Cost tables
//
// A Problem holds one name-cost table per repository schema:
// table[pid*n+rid] = 1 - sim(name of personal element pid, name of
// element rid). Repositories repeat names heavily, so an unfiltered
// build never scores cells one by one. It takes the repository's
// xmlschema.Vocabulary (its distinct names, plus each element's index
// into them; a sealed repository builds it once per snapshot), scores
// every distinct personal name against every vocabulary name through
// the scorer's row sessions, with column blocks spread over the
// BuildWorkers pool, and then fills each schema's table by vocabulary
// index. Every distinct name pair reaches the scorer exactly once per
// build, which is why the scorer needs no cache of its own (see
// internal/engine). The problem keeps the dense matrix, and
// Rebase copies its columns for names it has already scored; only new
// names are scored. Candidate-filtered builds still score their kept
// pairs cell by cell. A schema the filter does not hold is filled from
// the vocabulary.
//
// The search reads the per-schema tables, never the vocabulary: looking
// each candidate up through its vocabulary index would add an
// indirection to the innermost loop, which dominates warm requests on
// large repositories, while the fill costs one pass per build.
//
// Every table ends with its bound, m+1 floats carved from the same
// allocation: rest[pid] = Σ_{j ≥ pid} NameWeight·min_rid table[j][rid]/m,
// summed from j = m-1 down, and rest[m] = 0. The unfiltered fill tracks
// each row's minimum while it copies. Rounding is monotone, so each term
// is exactly the least NameCost of its row. A filtered table takes its
// bound from its final entries, where a pruned entry's lower bound keeps
// the bound admissible. Rebase carries the bound with the table, and
// SchemaView.Rest exposes it.
//
// # Search kernel
//
// Every schema carries a flat pre-order layout (xmlschema.Schema.Depths
// and Ends; the subtree of id is the ID range [id, Ends()[id])), and
// Problem.View pairs it with the schema's name-cost rows and the edge
// costs. One unexported depth-first enumerator runs on the view:
// EnumerateContext (behind Exhaustive, ParallelExhaustive, the clustered
// matcher and the update path) is it at margin 0, SearchProjected runs it
// with topk's margin, and beam keeps its level-wise search on the same
// view. A child's candidates are the range (parentImage,
// End[parentImage]), jumping to End[rid] past subtrees deeper than the
// stretch. The kernel returns exactly what the pointer-walking search it
// replaced did — answers, order, bit-identical scores, Yielded — pinned
// by a frozen copy (internal/matchers/searchparity_test.go), and its
// Candidates and Pruned equal that copy's with the bound below added:
//
//   - Only the depth test skips a subtree; a used, disallowed or pruned
//     candidate still has its descendants visited.
//   - Checks run in the order: depth, used, allowed, Candidates++ and the
//     cancellation poll, cost, prune (cost + margin·remaining > δ+ThresholdEps,
//     or the bound cut).
//   - A name cost is NameWeight·row[rid]/m in that order (NameWeight/m
//     precomputed rounds differently); costs accumulate as
//     (cost + name) + edge.
//   - NewAnswerSet orders tied scores by Key() string order: "s:10,…"
//     before "s:9,…", schema "a-b" before "a".
//
// The kernel also skips and cuts on the table's bound. Edge costs are ≥ 0
// and a name cost is never below its row's minimum, so no completion of
// a partial mapping at cost c scores below c + rest[pid+1]:
//
//   - Skip: Problem.SkipSchema reports a schema whose rest[0] exceeds
//     δ + ThresholdEps + BoundSlack (or that the candidate filter proved
//     answer-free). The enumerator returns empty SearchStats for it before
//     building a view or allocating, so a ParallelExhaustive worker that
//     claims it moves straight on to its next claim.
//   - Cut: the enumerator ORs c + rest[pid+1] > δ + ThresholdEps +
//     BoundSlack into its margin prune. BoundSlack (1e-9) absorbs the
//     bound's different summation order for an answer that scores exactly
//     δ + ThresholdEps.
//
// Neither removes an answer, so exhaustive, parallel, clustered, topk,
// sharded search and the update path keep their answers, order, scores
// and Yielded bit for bit; only Candidates and Pruned fall. Beam takes the
// skip only: cutting states inside a schema would free frontier slots
// and change which states survive, and so beam's answers.
package matching

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmlschema"
)

// Mapping assigns each element of the personal schema (indexed by its
// pre-order ID) to one element of a single repository schema.
type Mapping struct {
	// Schema is the repository schema the mapping points into.
	Schema string
	// Targets[i] is the repository element ID assigned to personal
	// element i. len(Targets) equals the personal schema size.
	Targets []int
}

// Key returns a canonical string identity for set operations across
// matchers ("schema:3,7,9").
func (m Mapping) Key() string {
	var b strings.Builder
	b.WriteString(m.Schema)
	b.WriteByte(':')
	for i, t := range m.Targets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// Refs expands the mapping into repository element Refs, one per
// personal element in ID order.
func (m Mapping) Refs() []xmlschema.Ref {
	out := make([]xmlschema.Ref, len(m.Targets))
	for i, t := range m.Targets {
		out[i] = xmlschema.Ref{Schema: m.Schema, ID: t}
	}
	return out
}

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if m.Schema != o.Schema || len(m.Targets) != len(o.Targets) {
		return false
	}
	for i := range m.Targets {
		if m.Targets[i] != o.Targets[i] {
			return false
		}
	}
	return true
}

// Answer is one ranked element of an answer set: a mapping and its
// objective score ∆ (lower is better).
type Answer struct {
	Mapping Mapping
	Score   float64
}

// AnswerSet is an immutable, deterministically ordered result of a
// matcher run: answers sorted by ascending score, ties broken by
// mapping key so that different matchers order identical answers
// identically.
type AnswerSet struct {
	answers []Answer
}

// NewAnswerSet sorts the answers (score, then key) and returns the set.
// Duplicate mappings are collapsed, keeping the lower score — matchers
// must not produce true duplicates, but the collapse makes the set a
// set.
// Each key is built once, not inside the comparator.
func NewAnswerSet(answers []Answer) *AnswerSet {
	type keyed struct {
		Answer
		key string
	}
	ks := make([]keyed, len(answers))
	for i, a := range answers {
		ks[i] = keyed{a, a.Mapping.Key()}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	dedup := answers[:0]
	seen := make(map[string]bool, len(ks))
	for _, k := range ks {
		if seen[k.key] {
			continue
		}
		seen[k.key] = true
		dedup = append(dedup, k.Answer)
	}
	return &AnswerSet{answers: dedup}
}

// Len returns the total number of answers.
func (s *AnswerSet) Len() int { return len(s.answers) }

// All returns all answers in rank order. Callers must not modify the
// returned slice.
func (s *AnswerSet) All() []Answer { return s.answers }

// ThresholdEps is the slack of every threshold cut: a mapping belongs
// to the answer set A(δ) when its score is ≤ δ + ThresholdEps. The
// matchers prune with it and the answer-set prefixes cut with it, so a
// score a rounding step above δ is inside A(δ) for both.
const ThresholdEps = 1e-12

// BoundSlack is the extra slack of the search's lower-bound cut: a
// branch is cut when cost + (name-cost bound of the elements still
// unassigned) > δ + ThresholdEps + BoundSlack. The bound sums the same
// contributions as a complete score but in another order, so for an
// answer whose score is exactly δ + ThresholdEps it may round a few
// ulps above the score; BoundSlack absorbs that, and nothing else.
const BoundSlack = 1e-9

// CountAt returns |A(δ)|: the number of answers with score ≤ delta +
// ThresholdEps.
func (s *AnswerSet) CountAt(delta float64) int {
	return sort.Search(len(s.answers), func(i int) bool { return s.answers[i].Score > delta+ThresholdEps })
}

// At returns the prefix of answers with score ≤ delta + ThresholdEps
// (the answer set A(δ) in rank order). The slice aliases the set's
// storage.
func (s *AnswerSet) At(delta float64) []Answer {
	return s.answers[:s.CountAt(delta)]
}

// TopN returns the first n answers (or fewer).
func (s *AnswerSet) TopN(n int) []Answer {
	if n > len(s.answers) {
		n = len(s.answers)
	}
	return s.answers[:n]
}

// Keys returns the mapping keys of the answers in At(delta).
func (s *AnswerSet) Keys(delta float64) map[string]bool {
	out := make(map[string]bool)
	for _, a := range s.At(delta) {
		out[a.Mapping.Key()] = true
	}
	return out
}

// MaxScore returns the largest score in the set, or 0 for an empty set.
func (s *AnswerSet) MaxScore() float64 {
	if len(s.answers) == 0 {
		return 0
	}
	return s.answers[len(s.answers)-1].Score
}

// SubsetOf reports whether every answer of s (at any threshold) also
// appears in big with the same score — the A_S2 ⊆ A_S1 containment the
// paper's technique rests on. It returns a descriptive error for the
// first violation. Callers checking many sets against one superset
// should build big.ScoreMap() once and use SubsetOfScores.
func (s *AnswerSet) SubsetOf(big *AnswerSet) error {
	return s.SubsetOfScores(big.ScoreMap())
}

// ScoreMap returns the mapping-key → score index of the set, for
// repeated SubsetOfScores checks against one superset.
func (s *AnswerSet) ScoreMap() map[string]float64 {
	scores := make(map[string]float64, len(s.answers))
	for _, a := range s.answers {
		scores[a.Mapping.Key()] = a.Score
	}
	return scores
}

// SubsetOfScores is SubsetOf against a prebuilt ScoreMap.
func (s *AnswerSet) SubsetOfScores(scores map[string]float64) error {
	for _, a := range s.answers {
		sc, ok := scores[a.Mapping.Key()]
		if !ok {
			return fmt.Errorf("matching: answer %s missing from superset", a.Mapping.Key())
		}
		if sc != a.Score {
			return fmt.Errorf("matching: answer %s scored %v vs %v — objective functions differ",
				a.Mapping.Key(), a.Score, sc)
		}
	}
	return nil
}

// Matcher is a schema matching system: it solves a Problem, returning
// every answer it finds with score ≤ delta. Exhaustive systems return
// all of SS∩{∆≤δ}; non-exhaustive improvements return a subset, scored
// by the same ∆.
type Matcher interface {
	// Name identifies the system in reports. The string is the
	// matcher's canonical registry spec ("exhaustive", "beam:8",
	// "topk:0.05") and round-trips through the match package's Parse.
	Name() string
	// Match returns the system's answer set for thresholds up to delta.
	// It is MatchContext under context.Background().
	Match(p *Problem, delta float64) (*AnswerSet, error)
	// MatchContext is the context-aware entry point: the search honors
	// cancellation and deadlines, returning ctx.Err() promptly
	// (checked periodically, off the per-node fast path) with a nil
	// answer set when the context ends mid-search.
	MatchContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, error)
}

// StatsMatcher is implemented by matchers that can report their search
// work alongside the answers. All matchers in this repository
// implement it; the match.Service uses it to fill Result.Stats.
type StatsMatcher interface {
	Matcher
	// MatchStatsContext runs the system under ctx and reports the
	// search-work counters accumulated during the run.
	MatchStatsContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, SearchStats, error)
}
