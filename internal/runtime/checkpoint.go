package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
)

// Header identifies the run a checkpoint belongs to. A checkpoint is
// only resumed when every field matches: the task keys ("s0/sub3",
// "s2/merge") are positions in a deterministic computation tree, so
// they are transferable between processes exactly when the graph, the
// seed and the solver configuration agree.
type Header struct {
	Version   int    `json:"version"`
	Graph     string `json:"graph"` // FNV-1a fingerprint of the instance
	Seed      uint64 `json:"seed"`
	MaxQubits int    `json:"maxQubits"`
	Solver    string `json:"solver"`
	Merge     string `json:"merge"`
	// Config carries any further configuration that changes results
	// without changing the solver names (each solver's ConfigTag, an
	// explicit partition); free-form fingerprint.
	Config string `json:"config,omitempty"`
}

// checkpointVersion is bumped whenever the entry format changes, or
// whenever what a task computes does: version 2 marks QAOA leaves that
// stop at their certificate (qaoa.SolveCut), which may settle on another
// optimal assignment than the full-budget optimizer of version 1.
const checkpointVersion = 2

// Fingerprint digests the header into a stable 16-hex-character id.
// Two headers share a fingerprint exactly when every field agrees —
// the same identity the resume match uses. The solve service
// (internal/serve) also keys jobs with Fingerprint, but over a header
// of its own (no Version; Config "layers:N[;problem:…]"), so a job id
// is not the fingerprint of the job's checkpoint header.
func (h Header) Fingerprint() string {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d|%s|%d|%d|%s|%s|%s",
		h.Version, h.Graph, h.Seed, h.MaxQubits, h.Solver, h.Merge, h.Config)
	return fmt.Sprintf("%016x", f.Sum64())
}

// entry is one completed task, appended as a JSON line. Spins are
// encoded as a +/- string; Value round-trips exactly through JSON
// (encoding/json emits the shortest float64 representation that
// parses back to the same bits).
type entry struct {
	Key    string  `json:"key"`
	Spins  string  `json:"spins"`
	Value  float64 `json:"value"`
	Solver string  `json:"solver,omitempty"`
}

// Record is a restored or recorded task result.
type Record struct {
	Cut    maxcut.Cut
	Solver string
}

// Checkpoint is an append-only on-disk store of completed task
// results: a header line followed by one JSON line per task. Safe for
// concurrent use by the runtime's workers.
//
// Durability contract. Every record is handed to the operating system
// (one write(2)) before Record returns, so a PROCESS killed at any
// instant loses at most the line being written — and a torn trailing
// line is skipped on load. The file is fsynced when syncInterval has
// passed since the last fsync, and on Close, so a HOST crash loses at
// most syncInterval of completed tasks plus the line in flight; resume
// recomputes them bit-identically. A task that costs more than
// syncInterval is still fsynced per record.
type Checkpoint struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	entries map[string]Record
	// now and fsync are time.Now and f.Sync, held as fields so a test
	// can inject a clock and count fsyncs; synced is the time of the
	// last fsync (zero before the first).
	now    func() time.Time
	fsync  func() error
	synced time.Time
}

// syncInterval bounds what a host crash can lose (see Checkpoint). An
// fsync costs ~0.3 ms here, a small leaf solve ~0.4 ms: per-record
// fsync doubled the cost of a checkpointed run of small tasks.
const syncInterval = 50 * time.Millisecond

// attach makes f the checkpoint's file.
func (c *Checkpoint) attach(f *os.File) {
	c.f = f
	c.w = bufio.NewWriter(f)
	c.now = time.Now
	c.fsync = f.Sync
}

// GraphFingerprint hashes a graph instance (node count, edge
// endpoints, weight bits) for Header.Graph.
func GraphFingerprint(g *graph.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for _, e := range g.Edges() {
		put(uint64(e.I))
		put(uint64(e.J))
		put(math.Float64bits(e.W))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// OpenCheckpoint opens (or creates) the checkpoint at path. When the
// file exists and its header matches h, previously recorded entries
// are loaded and subsequent records append; on any mismatch or
// corruption the file is truncated and restarted under the new
// header.
func OpenCheckpoint(path string, h Header) (*Checkpoint, error) {
	h.Version = checkpointVersion
	c := &Checkpoint{entries: make(map[string]Record)}
	if data, err := os.ReadFile(path); err == nil {
		// A record is only durable once its newline hit the disk: drop
		// a torn trailing line (kill mid-append) BEFORE loading, so
		// memory and the truncated file agree on the entry set — a
		// complete-JSON tail missing only its '\n' must not be loaded
		// and then silently deleted from disk.
		valid := int64(len(data))
		for valid > 0 && data[valid-1] != '\n' {
			valid--
		}
		if c.load(data[:valid], h) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, fmt.Errorf("runtime: reopen checkpoint: %w", err)
			}
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("runtime: truncate torn checkpoint tail: %w", err)
			}
			if _, err := f.Seek(valid, 0); err != nil {
				f.Close()
				return nil, err
			}
			c.attach(f)
			return c, nil
		}
		// Header mismatch or corrupt header: start over.
		c.entries = make(map[string]Record)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runtime: create checkpoint: %w", err)
	}
	c.attach(f)
	hdr, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := c.w.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := c.flush(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// SniffHeader parses the header line of serialized checkpoint data
// without opening a file. The fleet's re-park hand-off uses it to
// sanity-check a donated checkpoint against the receiving job before
// writing it to disk; OpenCheckpoint's full header match remains the
// correctness gate.
func SniffHeader(data []byte) (Header, error) {
	var h Header
	lines := splitLines(data)
	if len(lines) == 0 {
		return h, fmt.Errorf("runtime: empty checkpoint data")
	}
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return h, fmt.Errorf("runtime: checkpoint header: %w", err)
	}
	return h, nil
}

// CanonicalRecords returns serialized checkpoint data in canonical form:
// the header line, then the record lines sorted by task key. Workers
// append records in completion order, so the raw bytes of two runs of
// the same computation differ by scheduling alone; the canonical form is
// what such runs must agree on. Lines that do not parse as a record sort
// first, in byte order.
func CanonicalRecords(data []byte) []byte {
	lines := splitLines(data)
	if len(lines) == 0 {
		return nil
	}
	type record struct {
		key  string
		line []byte
	}
	records := make([]record, len(lines)-1)
	for i, line := range lines[1:] {
		var e entry
		_ = json.Unmarshal(line, &e) // a line that is no record keeps key ""
		records[i] = record{e.Key, line}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].key != records[j].key {
			return records[i].key < records[j].key
		}
		return bytes.Compare(records[i].line, records[j].line) < 0
	})
	out := append(append(make([]byte, 0, len(data)+1), lines[0]...), '\n')
	for _, r := range records {
		out = append(append(out, r.line...), '\n')
	}
	return out
}

// load parses an existing checkpoint file; it returns false when the
// header does not match (the file must be restarted). Malformed entry
// lines — in particular a torn final line from a killed run — are
// skipped.
func (c *Checkpoint) load(data []byte, want Header) bool {
	lines := splitLines(data)
	if len(lines) == 0 {
		return false
	}
	var have Header
	if err := json.Unmarshal(lines[0], &have); err != nil || have != want {
		return false
	}
	for _, line := range lines[1:] {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			continue
		}
		spins, ok := DecodeSpins(e.Spins)
		if !ok {
			continue
		}
		c.entries[e.Key] = Record{
			Cut:    maxcut.Cut{Spins: spins, Value: e.Value},
			Solver: e.Solver,
		}
	}
	return true
}

// Lookup returns the stored result for a task key.
func (c *Checkpoint) Lookup(key string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[key]
	return r, ok
}

// Len reports the total number of stored entries.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Record appends one completed task and writes it to the file before
// returning, so the entry survives a kill of the process immediately
// after (see Checkpoint for what a host crash can lose).
func (c *Checkpoint) Record(key string, r Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return nil
	}
	line, err := json.Marshal(entry{
		Key:    key,
		Spins:  EncodeSpins(r.Cut.Spins),
		Value:  r.Cut.Value,
		Solver: r.Solver,
	})
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runtime: checkpoint write: %w", err)
	}
	if err := c.flush(); err != nil {
		return err
	}
	c.entries[key] = r
	return nil
}

// flush drains the buffer to the file, and fsyncs when syncInterval has
// passed since the last fsync. Caller holds mu.
func (c *Checkpoint) flush() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("runtime: checkpoint flush: %w", err)
	}
	now := c.now()
	if now.Sub(c.synced) < syncInterval {
		return nil
	}
	if err := c.fsync(); err != nil {
		return fmt.Errorf("runtime: checkpoint sync: %w", err)
	}
	c.synced = now
	return nil
}

// Close flushes, fsyncs and closes the underlying file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.w.Flush()
	if err == nil {
		err = c.fsync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

// EncodeSpins renders a cut assignment in the +/- wire encoding used
// by checkpoint entries — and, via internal/serve, by the solve
// service's result wire format, so the two can never diverge.
func EncodeSpins(spins []int8) string {
	b := make([]byte, len(spins))
	for i, s := range spins {
		if s < 0 {
			b[i] = '-'
		} else {
			b[i] = '+'
		}
	}
	return string(b)
}

// DecodeSpins parses the +/- wire encoding; ok is false on any other
// character.
func DecodeSpins(s string) ([]int8, bool) {
	spins := make([]int8, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '+':
			spins[i] = 1
		case '-':
			spins[i] = -1
		default:
			return nil, false
		}
	}
	return spins, true
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
