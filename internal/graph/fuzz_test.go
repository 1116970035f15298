package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// readerSeeds are the inputs every reader's fuzz target starts from,
// written in Read's 0-based format; inFormat rewrites them for
// ReadGset. They cover a header far over MaxNodes, one just over
// it, NaN and infinite weights, parallel weights that sum to +Inf, a
// self-loop, an out-of-range endpoint, both edge-count mismatches, one
// valid graph and a header declaring far more edges than follow.
var readerSeeds = []string{
	"2000000000 0\n",
	fmt.Sprintf("%d 0\n", MaxNodes+1),
	"3 1\n0 1 NaN\n",
	"3 1\n0 1 +Inf\n",
	"3 1\n0 1 -inf\n",
	"3 2\n0 1 1e308\n1 0 1e308\n",
	"3 1\n1 1 1\n",
	"3 1\n0 5 1\n",
	"3 2\n0 1 1\n",
	"3 1\n0 1 1\n1 2 1\n",
	"# comment\n4 3\n0 1 1.5\n1 2 -2\n2 3 1\n",
	"3 1000000\n0 1 1\n",
}

// formats are the two readers, each with the writer of one header
// line and one edge line of its syntax.
var formats = []struct {
	name    string
	read    func(io.Reader) (*Graph, error)
	dialect format
	header  func(n, m string) string
	edge    func(i, j int, w string) string
}{
	{"graph", Read, plain,
		func(n, m string) string { return n + " " + m },
		func(i, j int, w string) string { return fmt.Sprintf("%d %d %s", i, j, w) }},
	{"gset", ReadGset, gset,
		func(n, m string) string { return n + " " + m },
		func(i, j int, w string) string { return fmt.Sprintf("%d %d %s", i+1, j+1, w) }},
}

// inFormat rewrites a seed of Read's format in format k's syntax.
func inFormat(k int, seed string) string {
	f := formats[k]
	var out []string
	header := true
	for _, line := range strings.Split(seed, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(line, "#"):
			out = append(out, line)
		case header:
			out = append(out, f.header(fields[0], fields[1]))
			header = false
		default:
			var i, j int
			fmt.Sscan(fields[0]+" "+fields[1], &i, &j)
			out = append(out, f.edge(i, j, fields[2]))
		}
	}
	return strings.Join(out, "\n")
}

// addEdgeLoop is the graph an AddEdge per edge builds, nil when
// AddEdge refuses a summed weight that is not finite: the oracle of
// FromEdges.
func addEdgeLoop(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		if g.AddEdge(e.I, e.J, e.W) != nil {
			return nil
		}
	}
	return g
}

// fuzzRead is the property both targets check: an input either
// fails with an error, or parses to a graph of at most MaxNodes nodes
// with finite weights that WriteTo and Read reproduce bit for bit.
// Either way the bytes allocated are bounded by the input's length and
// the returned graph's size, never by what a header declares. The
// graph is the one an AddEdge loop builds from the scanned edges, and
// a scanned input fails only where that loop sums to a non-finite
// weight.
func fuzzRead(t *testing.T, read func(io.Reader) (*Graph, error), dialect format, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if n, edges, scanErr := scan(dialect, string(data), self); scanErr == nil {
		want := addEdgeLoop(n, edges)
		if (want == nil) != (err != nil) {
			t.Fatalf("read error %v, AddEdge loop graph %v", err, want)
		}
		if want != nil {
			requireSameGraph(t, "read against the AddEdge loop", g, want)
		}
	} else if err == nil || err.Error() != scanErr.Error() {
		t.Fatalf("read error %v, scan error %v", err, scanErr)
	}
	limit := uint64(1<<20 + 256*len(data))
	if err == nil {
		limit += 64 * uint64(g.N())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("reading %d bytes allocated %d bytes, limit %d (err %v)", len(data), alloc, limit, err)
	}
	if err != nil {
		return
	}
	if g.N() > MaxNodes {
		t.Fatalf("accepted %d nodes, limit %d", g.N(), MaxNodes)
	}
	for _, e := range g.Edges() {
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			t.Fatalf("accepted edge %+v with a non-finite weight", e)
		}
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("written graph does not read back: %v", err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for k, e := range g.Edges() {
		if b := back.Edges()[k]; b.I != e.I || b.J != e.J || math.Float64bits(b.W) != math.Float64bits(e.W) {
			t.Fatalf("edge %d round-tripped %+v, want %+v", k, b, e)
		}
	}
}

func fuzzFormat(f *testing.F, k int) {
	for _, seed := range readerSeeds {
		f.Add([]byte(inFormat(k, seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRead(t, formats[k].read, formats[k].dialect, data)
	})
}

func FuzzRead(f *testing.F)     { fuzzFormat(f, 0) }
func FuzzReadGset(f *testing.F) { fuzzFormat(f, 1) }

// TestReadersRefuseTyped: an oversized header and every kind of
// non-finite weight fail with a *RefusedError in each format, malformed
// input fails with another error, and a header at the bound is
// accepted.
func TestReadersRefuseTyped(t *testing.T) {
	refused := []string{readerSeeds[0], readerSeeds[1], readerSeeds[2], readerSeeds[3], readerSeeds[4], readerSeeds[5]}
	for k, f := range formats {
		for _, seed := range refused {
			in := inFormat(k, seed)
			_, err := f.read(strings.NewReader(in))
			var re *RefusedError
			if !errors.As(err, &re) {
				t.Fatalf("%s %q: error %v is not a *RefusedError", f.name, in, err)
			}
			if re.Format != strings.TrimPrefix(f.name, "graph") {
				t.Fatalf("%s %q: refusal names format %q", f.name, in, re.Format)
			}
		}
		for _, seed := range []string{readerSeeds[6], readerSeeds[7], readerSeeds[8], readerSeeds[9]} {
			in := inFormat(k, seed)
			_, err := f.read(strings.NewReader(in))
			var re *RefusedError
			if err == nil || errors.As(err, &re) {
				t.Fatalf("%s %q: error %v, want a malformed-input error", f.name, in, err)
			}
		}
		g, err := f.read(strings.NewReader(inFormat(k, readerSeeds[10])))
		if err != nil || g.N() != 4 || g.M() != 3 {
			t.Fatalf("%s: valid seed read as %v, %v", f.name, g, err)
		}
	}
	g, err := Read(strings.NewReader(fmt.Sprintf("%d 0\n", MaxNodes)))
	if err != nil || g.N() != MaxNodes {
		t.Fatalf("header at the bound: %v", err)
	}
}

// FuzzInducedSubgraph checks InducedSubgraph against the edge-scan
// oracle on any graph and any node list: unsorted, repeated or out of
// range. The first byte sizes the graph, the second counts its edges,
// three bytes per edge give the endpoints and a signed weight, and
// every byte after them is one entry of the node list, reaching two
// nodes past either end of the range. Both return the same graph and
// mapping, or fail naming the same node.
func FuzzInducedSubgraph(f *testing.F) {
	f.Add([]byte{5, 4, 0, 1, 4, 1, 2, 8, 2, 3, 255, 3, 4, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 2, 0, 1, 4, 1, 2, 8, 6, 4, 6, 3})
	f.Add([]byte{5, 2, 0, 1, 4, 1, 2, 8, 6, 0, 3, 8, 8})
	f.Add([]byte{12, 30, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2})
	f.Add([]byte{0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := int(data[0]%32), int(data[1])
		data = data[2:]
		g := New(n)
		for ; m > 0 && len(data) >= 3 && n > 0; m-- {
			i, j, w := int(data[0])%n, int(data[1])%n, float64(int8(data[2]))/4
			data = data[3:]
			if i != j {
				g.MustAddEdge(i, j, w)
			}
		}
		nodes := make([]int, len(data))
		for k, b := range data {
			nodes[k] = int(b)%(n+4) - 2
		}
		got, gotMap, err := g.InducedSubgraph(nodes)
		want, wantMap, wantErr := inducedSubgraphEdgeScan(g, nodes)
		if wantErr != nil || err != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("nodes %v: error %v, oracle error %v", nodes, err, wantErr)
			}
			return
		}
		requireSameGraph(t, fmt.Sprintf("nodes %v", nodes), got, want)
		if !slices.Equal(gotMap, wantMap) {
			t.Fatalf("nodes %v: mapping %v, want %v", nodes, gotMap, wantMap)
		}
	})
}
