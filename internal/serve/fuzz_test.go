package serve

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSolveRequest drives arbitrary bodies through the admission steps
// Submit runs before it queues a job: JSON decoding as handleSolve does
// it, normalize (which builds a submitted problem and its MaxCut
// reduction), the graph build and ResolveSolvers. None may panic, and
// every request that passes them all is within the instance bounds and
// the layer bound.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":{"nodes":3,"edges":[{"i":0,"j":1,"w":1},{"i":1,"j":2,"w":-0.5}]},"layers":3,"solver":"qaoa","seed":7}`,
		`{"graph":{"nodes":2,"edges":[{"i":0,"j":1,"w":1}]},"layers":65}`,
		`{"graph":{"nodes":2000000000}}`,
		`{"graph":{"nodes":2,"edges":[{"i":0,"j":0,"w":1}]}}`,
		`{"graph":{"nodes":2},"solver":"portfolio","merge":"best","maxQubits":4,"priority":"high","parallelism":2}`,
		`{"graph":{"nodes":2},"priority":"urgent"}`,
		`{"graph":{"nodes":2},"parallelism":-1}`,
		`{"graph":{"nodes":2},"solver":"no-such-solver"}`,
		`{"graph":{"nodes":2},"bogus":1}`,
		`{"problem":{"kind":"mis","graph":{"nodes":3,"edges":[{"i":0,"j":1,"w":1}]},"weights":[1,2,3]}}`,
		`{"problem":{"kind":"vertex-cover","graph":{"nodes":3,"edges":[{"i":0,"j":2,"w":1}]},"penalty":2}}`,
		`{"problem":{"kind":"number-partition","numbers":[3,1,1,2,2,1]}}`,
		`{"problem":{"kind":"ising","vars":3,"couplings":[{"i":0,"j":1,"w":1}],"fields":[0.5,0,-1],"offset":2}}`,
		`{"problem":{"kind":"ising","vars":2,"fields":[1]}}`,
		`{"problem":{"kind":"mis"}}`,
		`{"problem":{"kind":"tsp"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		n, err := req.normalize()
		if err != nil {
			return
		}
		if _, err := n.Graph.Build(); err != nil {
			return
		}
		if _, err := ResolveSolvers(n); err != nil {
			return
		}
		if err := checkSize(n.Graph.Nodes, len(n.Graph.Edges)); err != nil {
			t.Fatalf("accepted an instance over the bounds: %v", err)
		}
		if n.Layers > maxLayers {
			t.Fatalf("accepted %d layers, limit %d", n.Layers, maxLayers)
		}
	})
}

// FuzzImportCheckpoint drives arbitrary ids and bodies through the
// checkpoint import, the receiving half of the fleet's re-park
// hand-off and the one place a request names a file. It must never
// panic and never create a file outside the state dir; a rejected
// import leaves the state dir as it was, and an accepted one adds or
// replaces exactly <id>.ckpt with the body.
func FuzzImportCheckpoint(f *testing.F) {
	for _, seed := range []struct{ id, data string }{
		{"0123456789abcdef", `{"version":2,"graph":"g","seed":1}` + "\n"},
		{"0123456789abcdef", ""},
		{"..%2F..%2Fpwned", "{}"},
		{"../../pwned", "{}"},
		{"0123456789ABCDEF", "{}"},
		{"/etc/0123456789a", "{}"},
		{"", "{}"},
	} {
		f.Add(seed.id, []byte(seed.data))
	}
	root := f.TempDir()
	dir := filepath.Join(root, "state")
	s, err := New(Config{StateDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	// files maps every file under root to its contents.
	files := func(t *testing.T) map[string]string {
		out := map[string]string{}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(p)
			out[p] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, id string, data []byte) {
		before := files(t)
		err := s.ImportCheckpoint(id, data)
		after := files(t)
		if err == nil {
			path := filepath.Join(dir, id+".ckpt")
			if filepath.Dir(path) != dir {
				t.Fatalf("accepted id %q names %s, outside the state dir", id, path)
			}
			before[path] = string(data)
			defer os.Remove(path)
		}
		if !maps.Equal(before, after) {
			t.Fatalf("import of id %q (err %v) left files %v, want %v", id, err, after, before)
		}
	})
}
