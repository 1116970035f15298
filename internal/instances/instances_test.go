package instances

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/solver"
)

// TestFixtureOptima re-proves every embedded fixture's catalog value by
// brute force — BestKnown for fixtures is an exact optimum, not a
// literature citation, and this test is what keeps that claim honest.
func TestFixtureOptima(t *testing.T) {
	fixtures := 0
	for _, in := range Catalog() {
		if !in.Embedded() {
			continue
		}
		fixtures++
		g, err := Load(in, "")
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !in.Exact {
			t.Errorf("%s: embedded fixtures must pin exact optima", in.Name)
		}
		best, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		if best.Value != in.BestKnown {
			t.Errorf("%s: catalog says %g, brute force finds %g", in.Name, in.BestKnown, best.Value)
		}
	}
	if fixtures < 2 {
		t.Fatalf("only %d embedded fixtures, want at least 2", fixtures)
	}
}

// TestLookup is case-insensitive and covers the advertised Gset names.
func TestLookup(t *testing.T) {
	for _, name := range []string{"g14", "G14", "petersen", "PETERSEN", "g11", "g22"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("lookup %q failed", name)
		}
	}
	if _, ok := Lookup("G999"); ok {
		t.Error("lookup of an uncataloged instance succeeded")
	}
}

// TestLoadVerifiesDimensions: a file that parses but does not match the
// catalog's node/edge counts must be rejected, and a missing Gset file
// must point at the download recipe.
func TestLoadVerifiesDimensions(t *testing.T) {
	dir := t.TempDir()
	// A valid Gset file that is NOT G14 (wrong dimensions).
	if err := os.WriteFile(filepath.Join(dir, "G14"), []byte("2 1\n1 2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g14, ok := Lookup("G14")
	if !ok {
		t.Fatal("G14 not cataloged")
	}
	if _, err := Load(g14, dir); err == nil || !strings.Contains(err.Error(), "catalog says") {
		t.Fatalf("dimension mismatch accepted: %v", err)
	}
	if _, err := Load(g14, t.TempDir()); err == nil || !strings.Contains(err.Error(), "download") {
		t.Fatalf("missing file error unhelpful: %v", err)
	}
}

// TestFixtureSolvesThroughQAOA2 runs an embedded fixture end to end
// through the divide-and-conquer stack: the petersen optimum is small
// enough that the exact sub-solver on a tight qubit budget still
// reaches a competitive cut, and the exact solver on a loose budget
// reproduces the pinned optimum.
func TestFixtureSolvesThroughQAOA2(t *testing.T) {
	in, ok := Lookup("petersen")
	if !ok {
		t.Fatal("petersen not cataloged")
	}
	g, err := Load(in, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := qaoa2.Solve(g, qaoa2.Options{MaxQubits: 16, Solver: solver.ExactSolver{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != in.BestKnown {
		t.Fatalf("device-sized exact solve found %g, optimum %g", res.Cut.Value, in.BestKnown)
	}
	// Forced decomposition still lands within 90% of optimum on this
	// tiny instance.
	res, err = qaoa2.Solve(g, qaoa2.Options{MaxQubits: 4, Solver: solver.ExactSolver{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 {
		t.Fatalf("4-qubit budget did not decompose: %d sub-graphs", res.SubGraphs)
	}
	if res.Cut.Value < 0.9*in.BestKnown {
		t.Fatalf("decomposed solve found %g, optimum %g", res.Cut.Value, in.BestKnown)
	}
}

// TestCatalogWithinReaderBound: graph.ReadGset refuses headers over
// graph.MaxNodes, so every catalogued instance must fit under it.
func TestCatalogWithinReaderBound(t *testing.T) {
	for _, in := range Catalog() {
		if in.Nodes > graph.MaxNodes {
			t.Errorf("%s has %d nodes, over the readers' bound %d", in.Name, in.Nodes, graph.MaxNodes)
		}
	}
}
