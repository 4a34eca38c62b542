// Incremental index maintenance. A repository snapshot swap changes a
// handful of schemas; rebuilding the whole cluster index (distance
// matrix + k-medoids, quadratic in distinct names) for every swap
// would dwarf the update itself. Apply instead patches the index: the
// clustering (the medoid set) is kept fixed, names that vanished from
// the repository leave their clusters, and new names join the cluster
// of their nearest medoid — exactly the assignment rule k-medoids
// itself terminates on, so membership stays the deterministic function
// "name → nearest medoid" and an incrementally maintained index is
// bit-identical to rebuilding membership from scratch over the same
// medoids (Rebase, which ParityCheck verifies). Clustering quality can
// still drift as the name population shifts, so Apply re-clusters from
// scratch once cumulative churn crosses IndexConfig.RebuildFraction.

package clustered

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/xmlschema"
)

// Repository returns the repository the index currently serves.
func (ix *Index) Repository() *xmlschema.Repository { return ix.repo }

// Drift returns the number of distinct names added plus removed since
// the last full (re)build — the quantity Apply's rebuild threshold is
// compared against.
func (ix *Index) Drift() int { return ix.drift }

// Apply returns a new index serving repo, patched by the given
// snapshot diff: elements of removed and replaced schemas leave the
// index, elements of added and replacement schemas join it, and only
// names whose global refcount crossed zero change cluster membership
// (new names are assigned to their nearest medoid). The receiver is
// not modified and keeps serving in-flight searches against the old
// repository. When cumulative drift since the last full build exceeds
// the configured RebuildFraction, Apply falls back to a full BuildIndex
// over repo with the original configuration (sharing the scorer).
//
// repo must be the repository the diff leads to; a diff inconsistent
// with the index's refcounts (e.g. removing a schema it never held) is
// an error.
func (ix *Index) Apply(repo *xmlschema.Repository, diff xmlschema.Diff) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	if diff.Empty() {
		nix := *ix
		nix.repo = repo
		return &nix, nil
	}

	counts := make(map[string]int, len(ix.nameCount))
	for n, c := range ix.nameCount {
		counts[n] = c
	}
	var addedNames, removedNames []string
	dec := func(s *xmlschema.Schema) error {
		var bad error
		s.Walk(func(e *xmlschema.Element) bool {
			counts[e.Name]--
			switch {
			case counts[e.Name] == 0:
				removedNames = append(removedNames, e.Name)
				delete(counts, e.Name)
			case counts[e.Name] < 0:
				bad = fmt.Errorf("clustered: diff removes name %q the index does not hold", e.Name)
				return false
			}
			return true
		})
		return bad
	}
	inc := func(s *xmlschema.Schema) {
		s.Walk(func(e *xmlschema.Element) bool {
			counts[e.Name]++
			if counts[e.Name] == 1 {
				addedNames = append(addedNames, e.Name)
			}
			return true
		})
	}
	for _, s := range diff.Removed {
		if err := dec(s); err != nil {
			return nil, err
		}
	}
	for _, ch := range diff.Replaced {
		if err := dec(ch.Old); err != nil {
			return nil, err
		}
	}
	for _, ch := range diff.Replaced {
		inc(ch.New)
	}
	for _, s := range diff.Added {
		inc(s)
	}
	// A name can bounce 0→1→0 (or 1→0→1) within one diff; keep only
	// names whose presence really changed against the index.
	addedNames = filterNames(addedNames, func(n string) bool {
		return counts[n] > 0 && ix.nameCount[n] == 0
	})
	removedNames = filterNames(removedNames, func(n string) bool {
		return counts[n] == 0 && ix.nameCount[n] > 0
	})
	if len(counts) == 0 {
		return nil, fmt.Errorf("clustered: diff empties the repository")
	}

	drift := ix.drift + len(addedNames) + len(removedNames)
	frac := ix.cfg.RebuildFraction
	if frac == 0 {
		frac = DefaultRebuildFraction
	}
	if frac >= 0 && float64(drift) > frac*float64(ix.baseNames) {
		return BuildIndex(repo, ix.cfg)
	}

	nameCluster := make(map[string]int, len(counts))
	for n, c := range ix.nameCluster {
		nameCluster[n] = c
	}
	for _, n := range removedNames {
		delete(nameCluster, n)
	}
	for _, n := range addedNames {
		nameCluster[n] = ix.nearestMedoid(n)
	}
	nix := &Index{
		repo:        repo,
		names:       sortedNames(counts),
		clustering:  ix.clustering,
		medoidNames: ix.medoidNames,
		nameCluster: nameCluster,
		silhouette:  ix.silhouette,
		scorer:      ix.scorer,
		cfg:         ix.cfg,
		nameCount:   counts,
		baseNames:   ix.baseNames,
		drift:       drift,
	}
	if ix.cfg.ParityCheck {
		ref, err := ix.Rebase(repo)
		if err != nil {
			return nil, fmt.Errorf("clustered: parity reference: %w", err)
		}
		if err := membershipEqual(nix, ref); err != nil {
			return nil, fmt.Errorf("clustered: incremental apply diverged from fresh membership build: %w", err)
		}
	}
	return nix, nil
}

// Rebase rebuilds the index's membership from scratch over repo while
// keeping the clustering (the medoid set) fixed: every distinct name
// of repo is assigned to its nearest medoid. It is the from-scratch
// reference Apply must agree with — Apply(diff) over any diff sequence
// leading to repo yields the same membership — and doubles as a repair
// path when no diff is available.
func (ix *Index) Rebase(repo *xmlschema.Repository) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	counts := countNames(repo)
	if len(counts) == 0 {
		return nil, fmt.Errorf("clustered: empty repository")
	}
	nameCluster := make(map[string]int, len(counts))
	for n := range counts {
		nameCluster[n] = ix.nearestMedoid(n)
	}
	return &Index{
		repo:        repo,
		names:       sortedNames(counts),
		clustering:  ix.clustering,
		medoidNames: ix.medoidNames,
		nameCluster: nameCluster,
		silhouette:  ix.silhouette,
		scorer:      ix.scorer,
		cfg:         ix.cfg,
		nameCount:   counts,
		baseNames:   ix.baseNames,
		drift:       ix.drift,
	}, nil
}

// Derive returns a sub-repository index sharing the receiver's
// clustering: every distinct name of repo (whose schemas must be drawn
// from the same name population the receiver's medoids were fit on —
// typically a shard of the receiver's repository) is assigned to its
// nearest medoid, exactly as Rebase does, and the re-cluster fallback
// of Apply is disabled on the derived index. Pinning the fallback is
// what keeps a family of indexes derived from one clustering
// merge-compatible forever: a shard-local re-cluster would give that
// shard different medoids than its siblings, and a search scattered
// across the family would stop agreeing with the same search over a
// single repository-wide index. Quality-driven re-clustering therefore
// happens at the level of the index Derive was called on; derived
// indexes follow it by re-deriving.
func (ix *Index) Derive(repo *xmlschema.Repository) (*Index, error) {
	nix, err := ix.Rebase(repo)
	if err != nil {
		return nil, err
	}
	nix.cfg.RebuildFraction = -1
	return nix, nil
}

// SameClustering reports whether two indexes share one clustering (the
// same medoid set, by identity). Incremental Apply, Rebase and Derive
// all preserve the clustering; only a full (re)build replaces it.
func (ix *Index) SameClustering(o *Index) bool {
	return o != nil && ix.clustering == o.clustering
}

// nearestMedoid returns the cluster whose medoid name is nearest to
// name, by the package-shared k-medoids assignment rule
// (cluster.NearestMedoid: distance-matrix argument orientation, zero
// self-distance, strict-< lowest-index tie-break). Existing assignments
// already satisfy this rule — k-medoids terminates on a full
// nearest-medoid assignment — which is what makes incremental insertion
// equivalent to a fresh build.
func (ix *Index) nearestMedoid(name string) int {
	return cluster.NearestMedoid(name, ix.medoidNames, ix.scorer)
}

// membershipEqual reports (as an error) the first divergence between
// two indexes' name sets or cluster memberships.
func membershipEqual(a, b *Index) error {
	if len(a.nameCluster) != len(b.nameCluster) {
		return fmt.Errorf("%d names vs %d", len(a.nameCluster), len(b.nameCluster))
	}
	for n, ca := range a.nameCluster {
		cb, ok := b.nameCluster[n]
		if !ok {
			return fmt.Errorf("name %q missing from reference", n)
		}
		if ca != cb {
			return fmt.Errorf("name %q in cluster %d vs %d", n, ca, cb)
		}
	}
	return nil
}

// filterNames keeps the names satisfying keep, de-duplicated.
func filterNames(names []string, keep func(string) bool) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] && keep(n) {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
