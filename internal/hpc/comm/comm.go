// Package comm is the in-process MPI-like communicator (mpi4py
// substitute) behind the sharded statevector engine in internal/qsim:
// fixed-size rank worlds, pairwise slice exchanges with traffic
// accounting, and a reusable barrier. It is a leaf package so qsim can
// exchange slices over a World without importing the hpc
// scheduling/remote stack (which depends on the solver plane and hence
// on qsim).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is one point-to-point transfer. Amplitude slices travel in
// a typed field: boxing a slice into an interface would allocate on
// every send, and slice exchanges run once per mixer layer.
type message struct {
	from, tag int
	slice     []complex128
	bytes     int
}

// World is a fixed-size group of ranks exchanging messages over
// in-process channels; the analogue of MPI_COMM_WORLD.
type World struct {
	size  int
	boxes []chan message // one inbox per rank
	// pending holds messages received but not yet matched by tag/source.
	pending [][]message
	barrier *reusableBarrier

	msgCount  atomic.Int64
	byteCount atomic.Int64
}

// WorldStats aggregates communication traffic.
type WorldStats struct {
	Messages int64
	Bytes    int64
}

// NewWorld creates a communicator with the given number of ranks
// (size ≥ 1). Inboxes are buffered so senders do not block on slow
// receivers, matching MPI's eager protocol for small messages.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("hpc: world size %d < 1", size)
	}
	w := &World{
		size:    size,
		boxes:   make([]chan message, size),
		pending: make([][]message, size),
		barrier: newReusableBarrier(size),
	}
	for i := range w.boxes {
		w.boxes[i] = make(chan message, 1024)
	}
	return w, nil
}

// Stats returns a traffic snapshot.
func (w *World) Stats() WorldStats {
	return WorldStats{Messages: w.msgCount.Load(), Bytes: w.byteCount.Load()}
}

// Rank returns rank r's communicator handle. Long-lived per-rank
// workers (the sharded statevector engine's rank goroutines) hold their
// handles across many exchanges.
func (w *World) Rank(r int) (*Comm, error) {
	if r < 0 || r >= w.size {
		return nil, fmt.Errorf("hpc: rank %d outside world of size %d", r, w.size)
	}
	return &Comm{world: w, rank: r}, nil
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's id in [0, world size).
func (c *Comm) Rank() int { return c.rank }

// send delivers m to rank `to`, stamping the sender and booking the
// traffic.
func (c *Comm) send(to int, m message) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("hpc: send to invalid rank %d", to))
	}
	c.world.msgCount.Add(1)
	c.world.byteCount.Add(int64(m.bytes))
	m.from = c.rank
	c.world.boxes[to] <- m
}

// recv blocks until a message with the given source and tag arrives.
// Out-of-order messages are buffered, so interleaved tags between the
// same pair of ranks cannot deadlock.
func (c *Comm) recv(from, tag int) message {
	// Check buffered messages first.
	pend := c.world.pending[c.rank]
	for i, m := range pend {
		if m.from == from && m.tag == tag {
			c.world.pending[c.rank] = append(pend[:i:i], pend[i+1:]...)
			return m
		}
	}
	for {
		m := <-c.world.boxes[c.rank]
		if m.from == from && m.tag == tag {
			return m
		}
		c.world.pending[c.rank] = append(c.world.pending[c.rank], m)
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.world.barrier.wait() }

// ExchangeSlices swaps amplitude slices with a partner rank: send goes
// to partner, partner's slice is copied into recv, and a world barrier
// separates the round — on return every rank's send buffer is safe to
// mutate again. The in-process transfer passes the send slice by
// reference (in the message's typed slice field, so a round allocates
// nothing) and the receiver copies it out, so the accounted traffic
// (16 bytes per amplitude, both directions counted at their senders) is
// exactly what an MPI_Sendrecv of the slice would move.
//
// ExchangeSlices is a COLLECTIVE over the whole world: every rank must
// call it in the same round (with partner pairings forming a perfect
// matching), or the barrier deadlocks.
func (c *Comm) ExchangeSlices(partner, tag int, send, recv []complex128) {
	c.send(partner, message{tag: tag, slice: send, bytes: 16 * len(send)})
	data := c.recv(partner, tag).slice
	if len(data) != len(recv) {
		panic(fmt.Sprintf("hpc: rank %d slice exchange with %d received %d amplitudes, want %d",
			c.rank, partner, len(data), len(recv)))
	}
	copy(recv, data)
	c.Barrier()
}

// reusableBarrier is a two-phase sense-reversing barrier.
type reusableBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	arrived int
	phase   int
}

func newReusableBarrier(size int) *reusableBarrier {
	b := &reusableBarrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *reusableBarrier) wait() {
	b.mu.Lock()
	phase := b.phase
	b.arrived++
	if b.arrived == b.size {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for phase == b.phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
