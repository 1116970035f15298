package comm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// runRanks runs body once per rank on its own goroutine, as the sharded
// engine's rank workers do, and re-raises the first panic once every
// rank has returned.
func runRanks(w *World, body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan interface{}, w.size)
	for r := 0; r < w.size; r++ {
		c, _ := w.Rank(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			body(c)
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// text packs a string into a slice message, one amplitude and one
// accounted byte per character.
func text(s string) message {
	slice := make([]complex128, len(s))
	for i, b := range []byte(s) {
		slice[i] = complex(float64(b), 0)
	}
	return message{slice: slice, bytes: len(s)}
}

func (m message) text() string {
	b := make([]byte, len(m.slice))
	for i, v := range m.slice {
		b[i] = byte(real(v))
	}
	return string(b)
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("zero-rank world accepted")
	}
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.size != 3 {
		t.Fatalf("size %d", w.size)
	}
}

func TestPingPong(t *testing.T) {
	w, _ := NewWorld(2)
	runRanks(w, func(c *Comm) {
		switch c.Rank() {
		case 0:
			ping := text("ping")
			ping.tag = 7
			c.send(1, ping)
			if m := c.recv(1, 8); m.text() != "pong" || m.from != 1 {
				t.Errorf("rank0 got %q from %d", m.text(), m.from)
			}
		case 1:
			if m := c.recv(0, 7); m.text() != "ping" || m.from != 0 {
				t.Errorf("rank1 got %q from %d", m.text(), m.from)
			}
			pong := text("pong")
			pong.tag = 8
			c.send(0, pong)
		}
	})
	stats := w.Stats()
	if stats.Messages != 2 || stats.Bytes != 8 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRecvBuffersOutOfOrderTags(t *testing.T) {
	w, _ := NewWorld(2)
	runRanks(w, func(c *Comm) {
		switch c.Rank() {
		case 0:
			first, second := text("first"), text("second")
			first.tag, second.tag = 1, 2
			c.send(1, first)
			c.send(1, second)
		case 1:
			// Receive in reverse tag order; the tag-1 message must be
			// buffered, not lost.
			second, first := c.recv(0, 2), c.recv(0, 1)
			if first.text() != "first" || second.text() != "second" {
				t.Errorf("got %q %q", first.text(), second.text())
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	w, _ := NewWorld(8)
	var before, violations atomic.Int64
	runRanks(w, func(c *Comm) {
		before.Add(1)
		c.Barrier()
		// After the barrier every rank must observe all 8 arrivals.
		if before.Load() != 8 {
			violations.Add(1)
		}
	})
	if violations.Load() != 0 {
		t.Fatalf("%d ranks passed the barrier early", violations.Load())
	}
}

func TestBarrierReusable(t *testing.T) {
	w, _ := NewWorld(4)
	var counter atomic.Int64
	runRanks(w, func(c *Comm) {
		for round := 1; round <= 3; round++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got != int64(4*round) {
				t.Errorf("round %d: counter %d", round, got)
			}
			c.Barrier()
		}
	})
}

func TestSendValidatesRank(t *testing.T) {
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rank accepted")
		}
	}()
	runRanks(w, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(5, message{})
		}
	})
}

func TestRankHandle(t *testing.T) {
	w, _ := NewWorld(3)
	for _, bad := range []int{-1, 3} {
		if _, err := w.Rank(bad); err == nil {
			t.Fatalf("rank %d accepted", bad)
		}
	}
	c1, err := w.Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Rank() != 1 || c1.world != w {
		t.Fatalf("handle rank=%d", c1.Rank())
	}
	// Handles taken separately talk to each other.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if m := c1.recv(0, 9); m.text() != "hello" || m.from != 0 {
			t.Errorf("handle got %q from %d", m.text(), m.from)
		}
	}()
	c0, err := w.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	hello := text("hello")
	hello.tag = 9
	c0.send(1, hello)
	<-done
}

// TestExchangeSlices drives one hypercube exchange round over 4 ranks
// and verifies payload delivery, post-barrier reuse safety, and exact
// traffic accounting (16 bytes per amplitude, both directions).
func TestExchangeSlices(t *testing.T) {
	const ranks, n = 4, 8
	w, _ := NewWorld(ranks)
	runRanks(w, func(c *Comm) {
		send := make([]complex128, n)
		recv := make([]complex128, n)
		for i := range send {
			send[i] = complex(float64(c.Rank()), float64(i))
		}
		// Round 1: partner = rank ^ 1; round 2: partner = rank ^ 2.
		for _, bit := range []int{1, 2} {
			partner := c.Rank() ^ bit
			c.ExchangeSlices(partner, 3, send, recv)
			for i, v := range recv {
				if v != complex(float64(partner), float64(i)) {
					t.Errorf("rank %d round %d: recv[%d] = %v", c.Rank(), bit, i, v)
				}
			}
			// The barrier inside ExchangeSlices makes the send buffer
			// safe to overwrite between rounds.
			copy(send, recv)
			for i := range send {
				send[i] = complex(float64(c.Rank()), float64(i))
			}
		}
	})
	stats := w.Stats()
	wantMsgs := int64(2 * ranks) // every rank sends once per round
	wantBytes := wantMsgs * n * 16
	if stats.Messages != wantMsgs || stats.Bytes != wantBytes {
		t.Fatalf("stats %+v, want %d msgs / %d bytes", stats, wantMsgs, wantBytes)
	}
}

func TestExchangeSlicesLengthMismatchPanics(t *testing.T) {
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	runRanks(w, func(c *Comm) {
		buf := make([]complex128, 4+c.Rank()) // ranks disagree on length
		c.ExchangeSlices(c.Rank()^1, 1, buf, buf)
	})
}
