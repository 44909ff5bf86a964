package telemetry

import "slices"

// PerFlow is a sink's per-flow state, indexed by flow id: the one table
// behind SpanSink, MetricsSink and flowstats.FlowTable. A simulation
// numbers its flows densely from 0, so ids below maxDenseFlow live in
// fixed pages of flowPage entries allocated on first use — growth never
// copies an entry, n ascending ids cost O(n) in all, and an entry's
// address stays valid for the table's lifetime. A larger id can only
// come from a hand-made or damaged log; its entry lives in a map, so one
// such id cannot make a sink allocate in proportion to it. The zero
// value is an empty table.
type PerFlow[T any] struct {
	pages  []*[flowPage]T // page p holds ids p*flowPage …; nil until one of them is seen
	sparse map[int32]*T   // ids of maxDenseFlow or more
}

const (
	flowPage     = 64
	maxDenseFlow = 1 << 16
)

// Get returns id's entry, creating a zero one on first sight; nil for a
// negative id (an event that names no flow).
func (t *PerFlow[T]) Get(id int32) *T {
	if p := int(id) / flowPage; id >= 0 && p < len(t.pages) && t.pages[p] != nil {
		return &t.pages[p][id%flowPage]
	}
	return t.grow(id)
}

func (t *PerFlow[T]) grow(id int32) *T {
	switch {
	case id < 0:
		return nil
	case id < maxDenseFlow:
		p := int(id) / flowPage
		if p >= len(t.pages) {
			t.pages = append(t.pages, make([]*[flowPage]T, p+1-len(t.pages))...)
		}
		t.pages[p] = new([flowPage]T)
		return &t.pages[p][id%flowPage]
	}
	v := t.sparse[id]
	if v == nil {
		if t.sparse == nil {
			t.sparse = make(map[int32]*T)
		}
		v = new(T)
		t.sparse[id] = v
	}
	return v
}

// Lookup returns id's entry without creating one: nil when the table
// holds no storage for id, otherwise the entry — zero if Get never
// returned it.
func (t *PerFlow[T]) Lookup(id int32) *T {
	if p := int(id) / flowPage; id >= 0 && p < len(t.pages) && t.pages[p] != nil {
		return &t.pages[p][id%flowPage]
	}
	if id < maxDenseFlow {
		return nil
	}
	return t.sparse[id]
}

// Each calls f on every entry the table holds storage for, in ascending
// id order, so a fold over the table is deterministic.
func (t *PerFlow[T]) Each(f func(id int32, v *T)) {
	for p, page := range t.pages {
		if page == nil {
			continue
		}
		for i := range page {
			f(int32(p*flowPage+i), &page[i])
		}
	}
	if len(t.sparse) == 0 {
		return
	}
	ids := make([]int32, 0, len(t.sparse))
	for id := range t.sparse {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		f(id, t.sparse[id])
	}
}

// Reset zeroes every entry. The dense pages stay allocated for reuse.
func (t *PerFlow[T]) Reset() {
	for _, page := range t.pages {
		if page != nil {
			*page = [flowPage]T{}
		}
	}
	clear(t.sparse)
}
