package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/rng"
)

// TestWriteReadRoundTrip: WriteTo → Read reproduces the instance
// exactly — node count, edge set, and bit-exact weights (WriteTo emits
// shortest-round-trip float formatting).
func TestWriteReadRoundTrip(t *testing.T) {
	cases := []*Graph{
		New(1),
		New(7), // edgeless
		ErdosRenyi(24, 0.3, Unweighted, rng.New(3)),
		ErdosRenyi(40, 0.15, UniformWeights, rng.New(4)),
	}
	// Adversarial weights: negative, tiny, huge, and non-terminating
	// binary fractions.
	tricky := New(5)
	tricky.MustAddEdge(0, 1, -2.5)
	tricky.MustAddEdge(1, 2, 1e-17)
	tricky.MustAddEdge(2, 3, 1e17)
	tricky.MustAddEdge(3, 4, 0.1+0.2)
	cases = append(cases, tricky)

	for ci, g := range cases {
		var buf bytes.Buffer
		n, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatalf("case %d: write: %v", ci, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("case %d: WriteTo reported %d bytes, wrote %d", ci, n, buf.Len())
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("case %d: read back: %v", ci, err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("case %d: round-trip n=%d m=%d, want n=%d m=%d",
				ci, back.N(), back.M(), g.N(), g.M())
		}
		want, got := g.Edges(), back.Edges()
		for i := range want {
			if want[i].I != got[i].I || want[i].J != got[i].J ||
				math.Float64bits(want[i].W) != math.Float64bits(got[i].W) {
				t.Fatalf("case %d: edge %d round-tripped %+v, want %+v (bit-exact)",
					ci, i, got[i], want[i])
			}
		}
	}
}

// TestReadSkipsCommentsAndBlankLines: the documented leniencies.
func TestReadSkipsCommentsAndBlankLines(t *testing.T) {
	in := "# MaxCut instance\n\n  \n3 2\n# edges follow\n0 1 1.5\n\n1 2 2\n# trailing comment\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 3/2", g.N(), g.M())
	}
	if w, ok := g.Weight(0, 1); !ok || w != 1.5 {
		t.Fatalf("edge (0,1) weight %v ok=%v", w, ok)
	}
}

// TestReadMalformedInputs: every documented rejection path, each with
// an error naming the offending line or condition.
func TestReadMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty", "", "empty input"},
		{"comments only", "# nothing\n\n", "empty input"},
		{"short header", "3\n", "want header"},
		{"long header", "3 1 9\n", "want header"},
		{"bad node count", "x 1\n0 1 1\n", "bad node count"},
		{"bad edge count", "3 y\n0 1 1\n", "bad edge count"},
		{"negative nodes", "-3 1\n0 1 1\n", "negative header"},
		{"negative edges", "3 -1\n", "negative header"},
		{"short edge line", "3 1\n0 1\n", `want "i j w"`},
		{"long edge line", "3 1\n0 1 1 1\n", `want "i j w"`},
		{"bad endpoint i", "3 1\nz 1 1\n", "bad endpoint"},
		{"bad endpoint j", "3 1\n0 z 1\n", "bad endpoint"},
		{"bad weight", "3 1\n0 1 w\n", "bad weight"},
		{"endpoint out of range", "3 1\n0 5 1\n", "out of range"},
		{"negative endpoint", "3 1\n-1 1 1\n", "out of range"},
		{"self loop", "3 1\n1 1 1\n", "self-loop"},
		{"fewer edges than declared", "3 2\n0 1 1\n", "declares 2 edges, found 1"},
		{"more edges than declared", "3 1\n0 1 1\n1 2 1\n", "declares 1 edges, found 2"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// TestReadLineNumbersInErrors: diagnostics point at the PHYSICAL line
// (comments and blanks counted), which is what an editor shows.
func TestReadLineNumbersInErrors(t *testing.T) {
	in := "# comment\n3 1\n\n0 bad 1\n"
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v does not name line 4", err)
	}
}

// TestReadZeroNodeHeader: "0 0" is a valid (if degenerate) instance.
func TestReadZeroNodeHeader(t *testing.T) {
	g, err := Read(strings.NewReader("0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("n=%d m=%d, want 0/0", g.N(), g.M())
	}
}

// TestWriteToPropagatesWriterErrors: a failing writer surfaces, both
// from the header and from an edge line.
func TestWriteToPropagatesWriterErrors(t *testing.T) {
	g := ErdosRenyi(64, 0.5, Unweighted, rng.New(1))
	for _, limit := range []int{0, 10} {
		if _, err := g.WriteTo(&limitedWriter{limit: limit}); err == nil {
			t.Fatalf("limit %d: writer error swallowed", limit)
		}
	}
}

type limitedWriter struct{ limit, written int }

func (w *limitedWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, bytes.ErrTooLarge
	}
	w.written += len(p)
	return len(p), nil
}

// TestFromEdgesMatchesAddEdge: on multigraphs with pairs listed several
// times in both orientations, FromEdges builds the AddEdge loop's graph
// (edges, adjacency, weight bits), and refuses what the loop would
// accept only to sum to a non-finite weight.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		var edges []Edge
		for k := r.Intn(4 * n); k > 0; k-- {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			edges = append(edges, Edge{I: i, J: j, W: 2*r.Float64() - 1})
		}
		g, err := FromEdges(n, edges, self)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, "FromEdges", g, addEdgeLoop(n, edges))
	}
	for _, tc := range []struct {
		name    string
		edges   []Edge
		refused bool
	}{
		{"self-loop", []Edge{{1, 1, 1}}, false},
		{"out of range", []Edge{{0, 3, 1}}, false},
		{"negative endpoint", []Edge{{-1, 0, 1}}, false},
		{"NaN", []Edge{{0, 1, math.NaN()}}, true},
		{"+Inf", []Edge{{0, 1, math.Inf(1)}}, true},
		{"sum to +Inf", []Edge{{0, 1, 1e308}, {1, 0, 1e308}}, true},
	} {
		_, err := FromEdges(3, tc.edges, self)
		var re *RefusedError
		if err == nil || errors.As(err, &re) != tc.refused {
			t.Errorf("%s: error %v, want refused=%v", tc.name, err, tc.refused)
		}
	}
}

// TestReadStarInLinearTime: a star lists every edge at one endpoint,
// which made the AddEdge loop quadratic (2.6 s at 100 000 edges).
func TestReadStarInLinearTime(t *testing.T) {
	const m = 1 << 18
	star := []byte(fmt.Sprintf("%d %d\n", m+1, m))
	for j := 1; j <= m; j++ {
		star = append(star, fmt.Sprintf("0 %d 1\n", j)...)
	}
	start := time.Now()
	g, err := Read(bytes.NewReader(star))
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("reading a %d-edge star took %v", m, took)
	}
	if g.Degree(0) != m {
		t.Fatalf("centre degree %d, want %d", g.Degree(0), m)
	}
}
