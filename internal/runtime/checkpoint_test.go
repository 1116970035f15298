package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/maxcut"
)

func testHeader() Header {
	return Header{Graph: "abc123", Seed: 7, MaxQubits: 8, Solver: "exact", Merge: "exact"}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	cut := maxcut.Cut{Spins: []int8{1, -1, 1}, Value: 2.125}
	if err := c.Record("s0/sub0", Record{Cut: cut, Solver: "exact"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("restored %d entries, want 1", c2.Len())
	}
	rec, ok := c2.Lookup("s0/sub0")
	if !ok || rec.Cut.Value != 2.125 || rec.Solver != "exact" {
		t.Fatalf("lookup %+v ok=%v", rec, ok)
	}
	if len(rec.Cut.Spins) != 3 || rec.Cut.Spins[1] != -1 {
		t.Fatalf("spins %v", rec.Cut.Spins)
	}
}

// TestCheckpointSyncsByTimeNotByRecord drives the durability contract
// with an injected clock: records closer together than syncInterval
// share an fsync, a record that took longer gets its own, Close always
// syncs — and every record is in the file the moment Record returns,
// which a second handle opened WITHOUT closing the first (a killed
// process never closes) proves by restoring all of them.
func TestCheckpointSyncsByTimeNotByRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	syncs := 0
	fsync := c.fsync
	c.now = func() time.Time { return clock }
	c.fsync = func() error { syncs++; return fsync() }
	c.synced = clock // the header's fsync, on the injected timeline

	records := 0
	record := func(after time.Duration) {
		t.Helper()
		clock = clock.Add(after)
		key := fmt.Sprintf("s0/sub%d", records)
		if err := c.Record(key, Record{Cut: maxcut.Cut{Spins: []int8{1, -1}, Value: 1}, Solver: "exact"}); err != nil {
			t.Fatal(err)
		}
		records++
	}
	// Ten 10 ms tasks: fsyncs at 50 ms and 100 ms only.
	for i := 0; i < 10; i++ {
		record(10 * time.Millisecond)
	}
	if syncs != 2 {
		t.Fatalf("%d fsyncs for ten records 10 ms apart, want 2", syncs)
	}
	// Tasks slower than the interval are synced one by one, as before.
	record(syncInterval)
	record(syncInterval + time.Millisecond)
	if syncs != 4 {
		t.Fatalf("%d fsyncs after two slow records, want 4", syncs)
	}
	// Three more inside the interval: written, not yet synced.
	for i := 0; i < 3; i++ {
		record(time.Millisecond)
	}
	if syncs != 4 {
		t.Fatalf("%d fsyncs, want the last three records to be waiting", syncs)
	}

	killed, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if killed.Len() != records {
		t.Fatalf("reopen beside an unclosed handle restored %d of %d records", killed.Len(), records)
	}
	killed.Close()

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 5 {
		t.Fatalf("%d fsyncs after Close, want Close to sync the waiting records", syncs)
	}
}

func TestCheckpointExactFloatRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	// An awkward non-representable decimal must round-trip bit-exactly.
	v := 0.1 + 0.2 + 1.0/3.0
	if err := c.Record("k", Record{Cut: maxcut.Cut{Spins: []int8{1}, Value: v}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec, ok := c2.Lookup("k")
	if !ok || rec.Cut.Value != v {
		t.Fatalf("value %v != %v", rec.Cut.Value, v)
	}
}

func TestCheckpointHeaderMismatchRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	c.Record("k", Record{Cut: maxcut.Cut{Spins: []int8{1}, Value: 1}})
	c.Close()

	other := testHeader()
	other.Seed = 99
	c2, err := OpenCheckpoint(path, other)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 0 {
		t.Fatalf("mismatched header restored %d entries", c2.Len())
	}
	if _, ok := c2.Lookup("k"); ok {
		t.Fatal("stale entry survived header mismatch")
	}
}

func TestCheckpointTornTrailingLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	c.Record("good", Record{Cut: maxcut.Cut{Spins: []int8{1, -1}, Value: 3}})
	c.Close()
	// Simulate a kill mid-append: a torn partial JSON line at the end.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","spins":"+-`)
	f.Close()

	c2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("restored %d, want the 1 intact entry", c2.Len())
	}
	if _, ok := c2.Lookup("torn"); ok {
		t.Fatal("torn entry restored")
	}
	// Appending after recovery still works and the file stays parseable.
	if err := c2.Record("next", Record{Cut: maxcut.Cut{Spins: []int8{-1}, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	// The torn fragment was truncated at reopen, so both the intact
	// entry and the post-recovery append must survive.
	if _, ok := c3.Lookup("good"); !ok {
		t.Fatal("intact entry lost after torn-line append")
	}
	if _, ok := c3.Lookup("next"); !ok {
		t.Fatal("post-recovery append lost")
	}
	if c3.Len() != 2 {
		t.Fatalf("restored %d want 2", c3.Len())
	}
}

func TestCheckpointNewlinelessTailNotSilentlyDropped(t *testing.T) {
	// A record is durable only once its newline is on disk. A tail
	// that is complete JSON but lacks the '\n' (kill cut exactly at
	// the newline) must be treated as torn CONSISTENTLY: not loaded
	// into memory while deleted from disk — that would let the dup
	// guard skip re-persisting it and lose it on the next resume.
	path := filepath.Join(t.TempDir(), "nl.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	c.Record("good", Record{Cut: maxcut.Cut{Spins: []int8{1}, Value: 1}})
	c.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a complete entry WITHOUT its trailing newline.
	torn := append(data, []byte(`{"key":"tail","spins":"+","value":2}`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup("tail"); ok {
		t.Fatal("newline-less tail loaded despite not being durable")
	}
	// Recording it again must actually persist it.
	if err := c2.Record("tail", Record{Cut: maxcut.Cut{Spins: []int8{-1}, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, ok := c3.Lookup("tail"); !ok {
		t.Fatal("re-recorded tail entry lost — memory/disk diverged")
	}
	if _, ok := c3.Lookup("good"); !ok {
		t.Fatal("intact entry lost")
	}
}

func TestCheckpointHeaderWithoutNewlineRestarts(t *testing.T) {
	// Worst torn case: only the header, no newline. It is not durable,
	// so the store must restart cleanly rather than truncate to zero
	// and leave an unparseable file.
	path := filepath.Join(t.TempDir(), "hnl.ckpt")
	hdr := `{"version":1,"graph":"abc123","seed":7,"maxQubits":8,"solver":"exact","merge":"exact"}`
	if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("k", Record{Cut: maxcut.Cut{Spins: []int8{1}, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Lookup("k"); !ok {
		t.Fatal("entry recorded after torn-header restart was lost")
	}
}

func TestCheckpointDuplicateRecordIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.ckpt")
	c, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cut := maxcut.Cut{Spins: []int8{1}, Value: 1}
	c.Record("k", Record{Cut: cut})
	c.Record("k", Record{Cut: maxcut.Cut{Spins: []int8{-1}, Value: 9}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"key":"k"`); n != 1 {
		t.Fatalf("duplicate key written %d times", n)
	}
	rec, _ := c.Lookup("k")
	if rec.Cut.Value != 1 {
		t.Fatal("duplicate overwrote first record")
	}
}

func TestCanonicalRecordsIgnoresAppendOrder(t *testing.T) {
	hdr := `{"version":1,"graph":"abc123"}`
	a := `{"key":"s0/sub1","spins":"+-","value":1}`
	b := `{"key":"s0/sub10","spins":"-+","value":1}`
	c := `{"key":"s1/merge","spins":"++","value":0}`
	one := []byte(strings.Join([]string{hdr, a, b, c}, "\n") + "\n")
	two := []byte(strings.Join([]string{hdr, c, b, a}, "\n") + "\n")
	if got := CanonicalRecords(two); string(got) != string(one) {
		t.Fatalf("canonical form:\n%s\nwant:\n%s", got, one)
	}
	if got := CanonicalRecords(one); string(got) != string(one) {
		t.Fatalf("canonical form of sorted data changed:\n%s", got)
	}
	// A changed record must still show.
	moved := []byte(strings.Replace(string(two), `"+-"`, `"--"`, 1))
	if string(CanonicalRecords(moved)) == string(one) {
		t.Fatal("canonical form hid a changed record")
	}
	if CanonicalRecords(nil) != nil {
		t.Fatal("canonical form of empty data is not empty")
	}
}

func TestSpinsEncoding(t *testing.T) {
	spins := []int8{1, -1, -1, 1}
	enc := EncodeSpins(spins)
	if enc != "+--+" {
		t.Fatalf("encode %q", enc)
	}
	dec, ok := DecodeSpins(enc)
	if !ok || len(dec) != 4 || dec[0] != 1 || dec[1] != -1 {
		t.Fatalf("decode %v ok=%v", dec, ok)
	}
	if _, ok := DecodeSpins("+x-"); ok {
		t.Fatal("bad spin char accepted")
	}
}

func TestHeaderFingerprint(t *testing.T) {
	base := Header{Graph: "abc", Seed: 7, MaxQubits: 12, Solver: "qaoa", Merge: "gw", Config: "layers:3"}
	fp := base.Fingerprint()
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex chars", fp)
	}
	if base.Fingerprint() != fp {
		t.Fatal("fingerprint not deterministic")
	}
	// Every identity field must move the digest.
	variants := []Header{
		{Graph: "abd", Seed: 7, MaxQubits: 12, Solver: "qaoa", Merge: "gw", Config: "layers:3"},
		{Graph: "abc", Seed: 8, MaxQubits: 12, Solver: "qaoa", Merge: "gw", Config: "layers:3"},
		{Graph: "abc", Seed: 7, MaxQubits: 16, Solver: "qaoa", Merge: "gw", Config: "layers:3"},
		{Graph: "abc", Seed: 7, MaxQubits: 12, Solver: "gw", Merge: "gw", Config: "layers:3"},
		{Graph: "abc", Seed: 7, MaxQubits: 12, Solver: "qaoa", Merge: "exact", Config: "layers:3"},
		{Graph: "abc", Seed: 7, MaxQubits: 12, Solver: "qaoa", Merge: "gw", Config: "layers:4"},
	}
	for i, h := range variants {
		if h.Fingerprint() == fp {
			t.Fatalf("variant %d shares the base fingerprint", i)
		}
	}
}
