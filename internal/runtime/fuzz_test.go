package runtime

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"qaoa2/internal/maxcut"
)

// FuzzOpenCheckpoint writes arbitrary bytes where a checkpoint file
// would be and opens it under a fixed header. Whatever the file holds,
// OpenCheckpoint must not panic or fail, and must leave a file ending
// in '\n' that is either the input cut after its last newline (the
// header matched: records resume) or exactly the header line (it did
// not: the run restarts). SniffHeader, which never panics either, reads
// the header of a kept file. Every restored record has a non-empty key
// and ±1 spins, and a record appended after the open survives a
// re-open.
func FuzzOpenCheckpoint(f *testing.F) {
	hdr := testHeader()
	hdr.Version = checkpointVersion
	line, err := json.Marshal(hdr)
	if err != nil {
		f.Fatal(err)
	}
	headerLine := append(line, '\n')
	rec := `{"key":"s0/sub1","spins":"+-+","value":2,"solver":"exact"}` + "\n"
	for _, seed := range []string{
		"",
		"\n",
		string(headerLine),
		string(line),
		string(headerLine) + rec,
		string(headerLine) + rec + `{"key":"s0/sub2","spins":"+-`,
		string(headerLine) + rec + `{"key":"s0/sub2","spins":"++","value":1}`,
		string(headerLine) + `{"key":"","spins":"+"}` + "\n" + `{"key":"k","spins":"+x"}` + "\n",
		string(headerLine) + "not json\n\n" + rec + rec,
		`{"version":1,"graph":"abc123","seed":7,"maxQubits":8,"solver":"exact","merge":"exact"}` + "\n" + rec,
		"\x00\xff garbage\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCheckpoint(path, testHeader())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := data[:bytes.LastIndexByte(data, '\n')+1]
		if len(onDisk) == 0 || onDisk[len(onDisk)-1] != '\n' {
			t.Fatalf("file does not end in a newline: %q", onDisk)
		}
		if !bytes.Equal(onDisk, cut) && !bytes.Equal(onDisk, headerLine) {
			t.Fatalf("file after open is %q: neither the input cut at its last newline %q nor the header line", onDisk, cut)
		}
		if !bytes.Equal(onDisk, cut) && c.Len() != 0 {
			t.Fatalf("restarted file restored %d records", c.Len())
		}
		// SniffHeader reads the header line the open matched.
		if h, err := SniffHeader(data); bytes.Equal(onDisk, cut) && (err != nil || h != hdr) {
			t.Fatalf("open kept the file, SniffHeader read %+v, %v", h, err)
		}
		for key, r := range c.entries {
			if key == "" {
				t.Fatal("restored a record with an empty key")
			}
			for _, s := range r.Cut.Spins {
				if s != 1 && s != -1 {
					t.Fatalf("record %q has spin %d", key, s)
				}
			}
		}

		// Durability is not under test here, and an fsync per record
		// and per close would dominate each execution.
		c.fsync = func() error { return nil }
		key := "fuzz/appended"
		for _, ok := c.Lookup(key); ok; _, ok = c.Lookup(key) {
			key += "+"
		}
		restored := c.Len()
		if err := c.Record(key, Record{Cut: maxcut.Cut{Spins: []int8{1, -1}, Value: 1}, Solver: "exact"}); err != nil {
			t.Fatalf("record: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		again, err := OpenCheckpoint(path, testHeader())
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		again.fsync = func() error { return nil }
		defer again.Close()
		if again.Len() != restored+1 {
			t.Fatalf("re-open restored %d records, want %d", again.Len(), restored+1)
		}
		if r, ok := again.Lookup(key); !ok || r.Cut.Value != 1 || len(r.Cut.Spins) != 2 {
			t.Fatalf("appended record re-opened as %+v, %v", r, ok)
		}
	})
}
