package serve

import (
	"bytes"
	"encoding/json"
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
