package xmlschema

// Vocabulary is the set of distinct element names of a repository,
// with every element's position in it. Repositories repeat names
// heavily (a 1 300-schema corpus of 24 000 elements carries a few
// hundred distinct names), so anything computed per name — the
// matching layer's name-cost columns — costs one evaluation per
// distinct name instead of one per element.
//
// A Vocabulary is immutable and safe for concurrent readers; its
// slices must not be modified.
type Vocabulary struct {
	// Names holds the distinct element names in first-seen order:
	// schemas in insertion order, elements in pre-order ID order.
	Names []string
	// IDs[i][id] is the index into Names of element id of the i-th
	// schema of Repository.Schemas().
	IDs [][]int32

	index map[string]int32
}

// Index returns the position of name in Names.
func (v *Vocabulary) Index(name string) (int, bool) {
	i, ok := v.index[name]
	return int(i), ok
}

// Len returns the number of distinct names.
func (v *Vocabulary) Len() int { return len(v.Names) }

// Vocabulary returns the repository's vocabulary. A sealed repository
// (one backing a Snapshot) builds it on first use and keeps it for its
// lifetime, so each snapshot generation pays one pass over its
// elements and frees the vocabulary together with the repository.
// Concurrent first callers may each build one; all of them receive the
// one that was stored. An unsealed repository can still change through
// Add, so it builds a fresh vocabulary on every call and caches none.
func (r *Repository) Vocabulary() *Vocabulary {
	if !r.sealed.Load() {
		return r.buildVocabulary()
	}
	if v := r.vocab.Load(); v != nil {
		return v
	}
	v := r.buildVocabulary()
	if r.vocab.CompareAndSwap(nil, v) {
		return v
	}
	return r.vocab.Load()
}

func (r *Repository) buildVocabulary() *Vocabulary {
	total := 0
	for _, n := range r.order {
		total += r.schemas[n].Len()
	}
	v := &Vocabulary{IDs: make([][]int32, len(r.order)), index: make(map[string]int32)}
	backing := make([]int32, total)
	for si, n := range r.order {
		s := r.schemas[n]
		ids := backing[:s.Len():s.Len()]
		backing = backing[s.Len():]
		for id, e := range s.byID {
			vi, ok := v.index[e.Name]
			if !ok {
				vi = int32(len(v.Names))
				v.index[e.Name] = vi
				v.Names = append(v.Names, e.Name)
			}
			ids[id] = vi
		}
		v.IDs[si] = ids
	}
	return v
}
