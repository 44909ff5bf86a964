package netem

import (
	"fmt"

	"rrtcp/internal/sim"
)

// DRRQueue is a deficit-round-robin fair queue (Shreedhar & Varghese
// 1996): each flow gets its own FIFO and a byte quantum per round, so a
// 40-byte ACK stream claims its fair share with almost no buffer
// pressure from competing 1000-byte data flows. The paper's §2.3
// argues that with such per-flow fair sharing at routers, ACK packets
// are far less likely to drop than data packets; the fairshare
// experiment tests exactly that.
type DRRQueue struct {
	quantum int
	limit   int

	flows  map[int]*drrFlow
	active ring[*drrFlow] // flows with queued packets, round-robin order
	total  int

	// Drops counts packets rejected, by flow.
	Drops map[int]uint64
}

var _ QueueDiscipline = (*DRRQueue)(nil)

// drrFlow is one flow's FIFO and byte credit. It is created when the
// flow's first packet arrives and kept across idle periods, so a warm
// queue enqueues and dequeues without allocating.
type drrFlow struct {
	id      int
	q       pktRing
	deficit int
	// fresh marks a flow that earns a quantum on its next turn at the
	// head of the round.
	fresh bool
}

// NewDRR builds a fair queue with the given per-round byte quantum and
// a total buffer limit in packets. Both must be at least one: a
// non-positive quantum never earns any flow a transmission credit, and
// a non-positive limit drops everything.
func NewDRR(quantumBytes, limitPackets int) (*DRRQueue, error) {
	if quantumBytes < 1 {
		return nil, fmt.Errorf("netem: DRR quantum must be >= 1 byte, got %d", quantumBytes)
	}
	if limitPackets < 1 {
		return nil, fmt.Errorf("netem: DRR limit must be >= 1 packet, got %d", limitPackets)
	}
	return &DRRQueue{
		quantum: quantumBytes,
		limit:   limitPackets,
		flows:   make(map[int]*drrFlow),
		Drops:   make(map[int]uint64),
	}, nil
}

// Enqueue implements QueueDiscipline. When the shared buffer is full,
// the packet at the tail of the longest per-flow queue is evicted
// (longest-queue drop), which is what protects low-rate flows such as
// ACK streams.
func (d *DRRQueue) Enqueue(p *Packet, _ sim.Time) bool {
	if d.total >= d.limit {
		i := d.longestActive()
		if i < 0 || d.active.at(i).id == p.Flow {
			d.Drops[p.Flow]++
			return false
		}
		victim := d.active.at(i)
		dropped := victim.q.popTail()
		d.Drops[dropped.Flow]++
		dropped.Release()
		d.total--
		if victim.q.n == 0 {
			d.active.removeAt(i)
			victim.deficit, victim.fresh = 0, false
		}
	}
	f := d.flows[p.Flow]
	if f == nil {
		f = &drrFlow{id: p.Flow}
		d.flows[p.Flow] = f
	}
	if f.q.n == 0 {
		d.active.push(f)
		f.fresh = true
	}
	f.q.push(p)
	d.total++
	return true
}

// longestActive returns the round position of the flow with the most
// queued packets (the first such in round order), or -1 if none has any.
func (d *DRRQueue) longestActive() int {
	longest, bestLen := -1, 0
	for i := 0; i < d.active.n; i++ {
		if l := d.active.at(i).q.n; l > bestLen {
			longest, bestLen = i, l
		}
	}
	return longest
}

// Dequeue implements QueueDiscipline with the standard DRR round. Every
// active flow has a packet queued, so total > 0 means the round has a
// head.
func (d *DRRQueue) Dequeue() *Packet {
	for d.total > 0 {
		f := d.active.at(0)
		if f.fresh {
			f.deficit += d.quantum
			f.fresh = false
		}
		if p := f.q.at(0); p.Size <= f.deficit {
			f.q.pop()
			f.deficit -= p.Size
			d.total--
			if f.q.n == 0 {
				d.active.pop()
				f.deficit = 0
			}
			return p
		}
		// Flow exhausted its deficit: move it to the back of the round
		// and credit it a fresh quantum on its next turn.
		d.active.push(d.active.pop())
		f.fresh = true
	}
	return nil
}

// Len implements QueueDiscipline.
func (d *DRRQueue) Len() int { return d.total }
