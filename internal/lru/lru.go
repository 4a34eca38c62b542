// Package lru provides the one small recency-evicting keyed map shared
// by the caches that must stay bounded in long-lived processes (the
// match service's session and searcher caches, the server's resident
// tenants, the wire layer's schema interner). It is deliberately minimal: no concurrency (callers hold
// their own locks) and linear-time touch — every use holds tens of
// entries keyed far off any per-pair hot path.
package lru

// Map is a keyed map evicting the least recently used entry beyond
// Limit. A Limit < 1 disables eviction (plain map semantics).
type Map[K comparable, V any] struct {
	limit int
	vals  map[K]V
	// order tracks keys from least to most recently used; maintained
	// only when eviction is enabled.
	order []K
}

// New returns an empty map evicting beyond limit (< 1 = unbounded).
func New[K comparable, V any](limit int) *Map[K, V] {
	return &Map[K, V]{limit: limit, vals: make(map[K]V)}
}

// Len returns the number of entries held.
func (m *Map[K, V]) Len() int { return len(m.vals) }

// Get returns the value for k, marking it most recently used.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := m.vals[k]
	if ok {
		m.touch(k)
	}
	return v, ok
}

// Peek returns the value for k without touching recency — for
// observers (stats, debugging) that must not distort eviction order.
func (m *Map[K, V]) Peek(k K) (V, bool) {
	v, ok := m.vals[k]
	return v, ok
}

// Put inserts or replaces k, marking it most recently used and
// evicting the least recently used entries beyond the limit.
func (m *Map[K, V]) Put(k K, v V) {
	_, existed := m.vals[k]
	m.vals[k] = v
	if m.limit < 1 {
		return
	}
	if existed {
		m.touch(k)
	} else {
		m.order = append(m.order, k)
	}
	for len(m.vals) > m.limit {
		evict := m.order[0]
		m.order = m.order[1:]
		delete(m.vals, evict)
	}
}

// Reset drops every entry.
func (m *Map[K, V]) Reset() {
	m.vals = make(map[K]V)
	m.order = nil
}

// Each visits every entry without touching recency, in least-to-most
// recently used order (map iteration order when eviction is disabled).
// fn must not mutate the map.
func (m *Map[K, V]) Each(fn func(K, V)) {
	if m.limit >= 1 {
		for _, k := range m.order {
			fn(k, m.vals[k])
		}
		return
	}
	for k, v := range m.vals {
		fn(k, v)
	}
}

// RemoveFunc removes every entry for which pred returns true and
// returns how many were removed, preserving the recency order of the
// survivors. It is the predicate-scoped alternative to Reset: callers
// holding version-keyed entries drop one generation without discarding
// every other warm entry.
func (m *Map[K, V]) RemoveFunc(pred func(K, V) bool) int {
	removed := 0
	for k, v := range m.vals {
		if pred(k, v) {
			delete(m.vals, k)
			removed++
		}
	}
	if removed > 0 && m.limit >= 1 {
		kept := m.order[:0]
		for _, k := range m.order {
			if _, ok := m.vals[k]; ok {
				kept = append(kept, k)
			}
		}
		m.order = kept
	}
	return removed
}

// Purge drops every entry, invoking onEvict (when non-nil) for each in
// least-to-most recently used order (map iteration order when eviction
// is disabled). Unlike Reset it gives owners of the evicted values a
// hook to release per-entry resources.
func (m *Map[K, V]) Purge(onEvict func(K, V)) {
	if onEvict != nil {
		if m.limit >= 1 {
			for _, k := range m.order {
				onEvict(k, m.vals[k])
			}
		} else {
			for k, v := range m.vals {
				onEvict(k, v)
			}
		}
	}
	m.Reset()
}

// touch moves k to the most-recently-used end of the order.
func (m *Map[K, V]) touch(k K) {
	if m.limit < 1 {
		return
	}
	for i, key := range m.order {
		if key == k {
			m.order = append(append(m.order[:i:i], m.order[i+1:]...), k)
			return
		}
	}
}
