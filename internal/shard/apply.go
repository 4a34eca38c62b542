// Incremental searcher maintenance across snapshot swaps. The whole
// point of sharding a versioned repository: a diff touching d schemas
// invalidates at most d shards' sub-snapshots and indexes, while every
// other shard transfers to the next searcher generation by pointer —
// sub-snapshot and derived index both stay warm.

package shard

import (
	"fmt"

	"repro/internal/candindex"
	"repro/internal/matchers/clustered"
	"repro/internal/xmlschema"
)

// Apply derives the searcher for the next snapshot generation from a
// snapshot diff. Unaffected shards keep their sub-snapshot and built
// index (shared with the receiver, which stays fully
// valid for in-flight searches). Each affected shard — one holding a
// removed or replaced schema, or routed an added one — rebuilds its
// sub-snapshot from next and, when its index was built, patches it with
// the shard's slice of the diff via clustered.Index.Apply.
//
// globalIndex replaces the receiver's cfg.GlobalIndex provider for the
// new generation (nil disables the provider): the receiver's own
// closure was built for the repository it serves and must not leak into
// a searcher over next. When the receiver's clustering is built, the
// new generation's is settled eagerly — adopted from the fresh provider
// when it serves next's repository (identity-sharing the index the
// provider's owner maintains), else advanced with clustered.Index.Apply
// — and shard indexes carry over only while the clustering is the same:
// if it changed (drift-triggered re-cluster, or a provider that rebuilt
// from scratch), every shard re-derives lazily so the whole family
// keeps sharing one medoid set.
//
// globalCand likewise replaces cfg.GlobalCandidates for the new
// generation. A built global candidate index is settled the same way —
// adopted from the fresh provider when it serves next's repository,
// else advanced with candindex.Index.Apply — and built per-shard
// candidate indexes carry by pointer on unaffected shards and are
// patched with the shard's slice of the diff on affected ones. Unlike
// the clustering there is no cross-shard invariant to gate on: bounds
// are pure functions of the metric, so carried indexes always agree.
//
// next must be the snapshot diff leads to; an empty next is rejected.
func (sr *Searcher) Apply(next *xmlschema.Snapshot, diff xmlschema.Diff, globalIndex func() (*clustered.Index, error), globalCand func() (*candindex.Index, error)) (*Searcher, error) {
	if next == nil {
		return nil, fmt.Errorf("shard: nil snapshot")
	}
	if next.Len() == 0 {
		return nil, fmt.Errorf("shard: diff empties the repository")
	}
	nplan := sr.plan.apply(diff)
	affected := make(map[int]bool, diff.NumChanged())
	for _, sch := range diff.Removed {
		if s, ok := sr.plan.ShardOf(sch.Name); ok {
			affected[s] = true
		}
	}
	for _, ch := range diff.Replaced {
		if s, ok := sr.plan.ShardOf(ch.Old.Name); ok {
			affected[s] = true
		}
	}
	for _, sch := range diff.Added {
		if s, ok := nplan.ShardOf(sch.Name); ok {
			affected[s] = true
		}
	}

	ns := &Searcher{cfg: sr.cfg, plan: nplan, snap: next}
	ns.cfg.GlobalIndex = globalIndex
	ns.cfg.GlobalCandidates = globalCand

	// Settle the new generation's clustering while the old one is warm
	// (a never-built clustering stays lazy). sameClustering gates the
	// carrying of shard indexes below: carrying one derived from a
	// clustering the new generation no longer serves would silently
	// break the one-medoid-set invariant.
	sameClustering := false
	if gix, gixErr, built := sr.gix.Built(); built && gixErr == nil && gix != nil {
		var newGix *clustered.Index
		if globalIndex != nil {
			if ix, err := globalIndex(); err == nil && ix != nil && ix.Repository() == next.Repository() {
				newGix = ix
			}
		}
		if newGix == nil {
			if applied, err := gix.Apply(next.Repository(), diff); err == nil {
				newGix = applied
			}
		}
		if newGix != nil {
			ns.gix.Seed(newGix, nil)
			sameClustering = newGix.SameClustering(gix)
		}
	}

	// Settle the new generation's global candidate index the same way.
	if gc, gcErr, built := sr.gcand.Built(); built && gcErr == nil && gc != nil {
		var newGC *candindex.Index
		if globalCand != nil {
			if ix, err := globalCand(); err == nil && ix != nil && ix.Repository() == next.Repository() {
				newGC = ix
			}
		}
		if newGC == nil {
			if applied, err := gc.Apply(next.Repository(), diff); err == nil {
				newGC = applied
			}
		}
		if newGC != nil {
			ns.gcand.Seed(newGC, nil)
		}
	}

	ns.shards = make([]*Shard, len(sr.shards))
	for i, old := range sr.shards {
		nsh := &Shard{id: i, owner: ns, snap: old.snap}
		if affected[i] {
			rebuilt, err := ns.buildShard(i)
			if err != nil {
				return nil, err
			}
			nsh.snap = rebuilt.snap
		}
		if ix, ixErr, built := old.ix.Built(); built && ixErr == nil && ix != nil && sameClustering && nsh.Len() > 0 {
			if !affected[i] {
				nsh.ix.Seed(ix, nil)
			} else if applied, err := ix.Apply(nsh.Repository(), subDiff(diff, i, sr.plan, nplan)); err == nil {
				nsh.ix.Seed(applied, nil)
			}
		}
		if cix, cErr, built := old.cand.Built(); built && cErr == nil && cix != nil && nsh.Len() > 0 {
			if !affected[i] {
				nsh.cand.Seed(cix, nil)
			} else if applied, err := cix.Apply(nsh.Repository(), subDiff(diff, i, sr.plan, nplan)); err == nil {
				nsh.cand.Seed(applied, nil)
			}
		}
		ns.shards[i] = nsh
	}
	return ns, nil
}

// subDiff restricts a snapshot diff to shard i: added schemas the new
// plan routes there, removed and replaced schemas the old plan held
// there (replacement never moves a schema — assignment is by name).
func subDiff(diff xmlschema.Diff, i int, oldPlan, newPlan *Plan) xmlschema.Diff {
	sub := xmlschema.Diff{From: diff.From, To: diff.To}
	for _, sch := range diff.Added {
		if s, ok := newPlan.ShardOf(sch.Name); ok && s == i {
			sub.Added = append(sub.Added, sch)
		}
	}
	for _, sch := range diff.Removed {
		if s, ok := oldPlan.ShardOf(sch.Name); ok && s == i {
			sub.Removed = append(sub.Removed, sch)
		}
	}
	for _, ch := range diff.Replaced {
		if s, ok := oldPlan.ShardOf(ch.Old.Name); ok && s == i {
			sub.Replaced = append(sub.Replaced, ch)
		}
	}
	return sub
}
