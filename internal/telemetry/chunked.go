package telemetry

import "math/bits"

// Chunked is the append-only store under every per-event recorder (the
// unbounded Ring, and through it a recorded FlowTrace; SpanSink spans).
// Records live in chunks that are never moved: growth allocates one new
// chunk and copies nothing, slack is at most one chunk, and the address
// Append returns stays valid until the store is Reset. Chunk capacities
// ramp 64, 128, … 4096 so short sequences stay small. The zero value is
// an empty store.
type Chunked[T any] struct {
	chunks [][]T
	n      int
}

const (
	chunkMin   = 64
	chunkRamps = 6 // doublings: the steady chunk holds chunkMin<<chunkRamps = 4096 records
)

// Append adds v at the end and returns its address.
func (c *Chunked[T]) Append(v T) *T {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		if len(c.chunks) < cap(c.chunks) && c.chunks[:last+2][last+1] != nil {
			c.chunks = c.chunks[:last+2] // a chunk kept by Reset, of the capacity this position takes
		} else {
			c.chunks = append(c.chunks, make([]T, 0, chunkMin<<min(len(c.chunks), chunkRamps)))
		}
		last++
	}
	ch := append(c.chunks[last], v) // within capacity: never reallocates
	c.chunks[last] = ch
	c.n++
	return &ch[len(ch)-1]
}

// At returns the address of record i, 0 <= i < Len(): chunk k of the
// ramp starts at chunkMin·(2^k − 1), every later chunk holds the steady
// chunkMin<<chunkRamps.
func (c *Chunked[T]) At(i int) *T {
	const ramp = chunkMin<<chunkRamps - chunkMin // records in the ramp chunks: 64+128+…+2048
	if i < ramp {
		k := bits.Len(uint(i/chunkMin+1)) - 1
		return &c.chunks[k][i-chunkMin*(1<<k-1)]
	}
	i -= ramp
	return &c.chunks[chunkRamps+i/(chunkMin<<chunkRamps)][i%(chunkMin<<chunkRamps)]
}

// Reset empties the store, keeping its chunks: records appended after
// it fill them again in the same order, so a store that has been as
// long as it gets allocates nothing more. Addresses and chunks handed
// out before are invalid afterwards.
func (c *Chunked[T]) Reset() {
	for i, ch := range c.chunks {
		clear(ch)
		c.chunks[i] = ch[:0]
	}
	c.chunks = c.chunks[:0]
	c.n = 0
}

// Len reports how many records the store holds.
func (c *Chunked[T]) Len() int { return c.n }

// Chunks exposes the records in place, in append order, for readers to
// walk without flattening. The chunks belong to the store: callers may
// update records through them but must not append or reslice.
func (c *Chunked[T]) Chunks() [][]T { return c.chunks }
