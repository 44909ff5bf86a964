package telemetry

import (
	"slices"
	"testing"
)

// chunkedSizes are the lengths worth checking: empty, one record, either
// side of the first chunk (64), of the first two (64+128), of the whole
// ramp (64+128+…+4096 = 8128), and of the first steady 4096-chunk.
var chunkedSizes = []int{0, 1, 63, 64, 65, 191, 192, 193, 8127, 8128, 8129, 8128 + 4096, 8128 + 4096 + 1}

func TestChunkedOrderLenAndFlatten(t *testing.T) {
	for _, n := range chunkedSizes {
		var c Chunked[int]
		want := make([]int, n)
		for i := range want {
			want[i] = i * 3
			c.Append(i * 3)
		}
		if c.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, c.Len())
		}
		var walked []int
		for _, chunk := range c.Chunks() {
			if len(chunk) == 0 {
				t.Fatalf("n=%d: empty chunk in the directory", n)
			}
			walked = append(walked, chunk...)
		}
		if !slices.Equal(walked, want) {
			t.Fatalf("n=%d: in-place walk differs from append order", n)
		}
	}
}

func TestChunkedRampAndSlack(t *testing.T) {
	var c Chunked[int]
	for i := 0; i < 8128+2*4096+1; i++ {
		c.Append(i)
	}
	var caps []int
	for _, chunk := range c.Chunks() {
		caps = append(caps, cap(chunk))
	}
	want := []int{64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096, 4096}
	if !slices.Equal(caps, want) {
		t.Fatalf("chunk capacities %v, want %v", caps, want)
	}
}

// Addresses handed out by Append must survive any amount of later
// growth, and At(i) must find record i where the chunk walk does:
// SpanSink names its open spans by position.
func TestChunkedAddressStability(t *testing.T) {
	var c Chunked[int]
	const n = 8128 + 4096 + 10
	ptrs := make([]*int, n)
	for i := 0; i < n; i++ {
		ptrs[i] = c.Append(i)
	}
	i := 0
	for _, chunk := range c.Chunks() {
		for j := range chunk {
			if ptrs[i] != &chunk[j] {
				t.Fatalf("record %d moved after growth", i)
			}
			if c.At(i) != &chunk[j] {
				t.Fatalf("At(%d) does not address record %d", i, i)
			}
			if *ptrs[i] != i {
				t.Fatalf("record %d reads %d through its Append address", i, *ptrs[i])
			}
			i++
		}
	}
	*ptrs[70] = -7 // a write through the address lands in the store
	if got := c.Chunks()[1][70-64]; got != -7 {
		t.Fatalf("write through Append's address not visible in the store: %d", got)
	}
}

func TestChunkedAppendAllocatesOnlyAtChunkBoundaries(t *testing.T) {
	var c Chunked[Event]
	for i := 0; i < 8128+1; i++ { // into the first 4096-chunk
		c.Append(Event{})
	}
	if avg := testing.AllocsPerRun(4000, func() { c.Append(Event{}) }); avg != 0 {
		t.Fatalf("Append within a chunk allocates %.2f times per call, want 0", avg)
	}
}

// A Reset store is an empty one that refills its kept chunks: the same
// ramp, the same order, At where the walk is, and no allocation for
// records it has held before.
func TestChunkedResetRefillsItsChunks(t *testing.T) {
	var c Chunked[int]
	for i := 0; i < 8128+4096+1; i++ {
		c.Append(i)
	}
	for _, n := range chunkedSizes {
		c.Reset()
		if c.Len() != 0 || len(c.Chunks()) != 0 {
			t.Fatalf("after Reset: Len %d, %d chunks, want an empty store", c.Len(), len(c.Chunks()))
		}
		if avg := testing.AllocsPerRun(1, func() {
			c.Reset()
			for i := 0; i < n; i++ {
				c.Append(-i)
			}
		}); avg != 0 {
			t.Fatalf("n=%d: refilling a reset store allocates %.0f times, want 0", n, avg)
		}
		var fresh Chunked[int]
		for i := 0; i < n; i++ {
			fresh.Append(-i)
		}
		if len(c.Chunks()) != len(fresh.Chunks()) {
			t.Fatalf("n=%d: %d chunks after a refill, a fresh store has %d", n, len(c.Chunks()), len(fresh.Chunks()))
		}
		for k, chunk := range c.Chunks() {
			if !slices.Equal(chunk, fresh.Chunks()[k]) || cap(chunk) != cap(fresh.Chunks()[k]) {
				t.Fatalf("n=%d: chunk %d differs from a fresh store's", n, k)
			}
		}
		for i := 0; i < n; i++ {
			if *c.At(i) != -i {
				t.Fatalf("n=%d: At(%d) = %d after a refill", n, i, *c.At(i))
			}
		}
	}
}
