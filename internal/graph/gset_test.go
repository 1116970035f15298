package graph

import (
	"strings"
	"testing"
)

func TestReadGset(t *testing.T) {
	in := `# triangle with a pendant, Gset style (1-based)
4 4
1 2 1
2 3 -1
1 3 2
3 4 1
`
	g, err := ReadGset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("parsed %d nodes / %d edges", g.N(), g.M())
	}
	// 1-based endpoints land 0-based: edge (1,2,1) becomes (0,1,1).
	e := g.Edges()[0]
	if e.I != 0 || e.J != 1 || e.W != 1 {
		t.Fatalf("first edge %+v, want (0,1,1)", e)
	}
	if e := g.Edges()[1]; e.W != -1 {
		t.Fatalf("signed weight lost: %+v", e)
	}
}

func TestReadGsetMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"empty":           "",
		"bad header":      "4\n",
		"zero endpoint":   "2 1\n0 1 1\n",
		"out of range":    "2 1\n1 3 1\n",
		"self loop":       "2 1\n1 1 1\n",
		"edge count low":  "3 2\n1 2 1\n",
		"edge count high": "3 1\n1 2 1\n2 3 1\n",
		"bad weight":      "2 1\n1 2 x\n",
		"short edge line": "2 1\n1 2\n",
	} {
		if _, err := ReadGset(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestGsetRoundTripThroughWriteTo: a Gset-parsed graph re-serialized by
// WriteTo (0-based) re-reads identically through Read.
func TestGsetRoundTripThroughWriteTo(t *testing.T) {
	in := "3 3\n1 2 1\n2 3 0.5\n1 3 -2\n"
	g, err := ReadGset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := g.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
		t.Fatal("round trip changed the graph")
	}
}
