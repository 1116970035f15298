package experiments

import (
	"reflect"
	"testing"

	"qaoa2/internal/qaoa"
)

// TestConfigConstructors pins the shape relations between the
// laptop-scale defaults and their paper-scale variants (full configs
// must strictly dominate the defaults in scale), pins the one Fig. 4
// configuration to the paper's values, and requires every config to
// be runnable (non-empty sweeps, a usable seed).
func TestConfigConstructors(t *testing.T) {
	d3, f3 := DefaultFig3Config(), FullFig3Config()
	if len(d3.NodeCounts) == 0 || len(d3.EdgeProbs) == 0 || len(d3.Layers) == 0 {
		t.Fatalf("default Fig3 config empty: %+v", d3)
	}
	if f3.NodeCounts[len(f3.NodeCounts)-1] <= d3.NodeCounts[len(d3.NodeCounts)-1] {
		t.Fatal("full Fig3 grid does not exceed the default scale")
	}

	paper4 := Fig4Config{
		NodeCounts: []int{500, 1000, 1500, 2000, 2500},
		EdgeProb:   0.1,
		MaxQubits:  16,
		QAOA:       qaoa.Options{Layers: 6, Rhobeg: 0.5, MaxIters: qaoa.IterationsFor(6)},
		Seed:       3,
	}
	if d4 := DefaultFig4Config(); !reflect.DeepEqual(d4, paper4) {
		t.Fatalf("Fig4 config %+v, want the paper's %+v", d4, paper4)
	}

	dt, ft := DefaultTable1Config(), FullTable1Config()
	if len(dt.NodeCounts) == 0 || dt.Shots <= 0 {
		t.Fatalf("default Table1 config empty: %+v", dt)
	}
	if ft.NodeCounts[0] <= dt.NodeCounts[len(dt.NodeCounts)-1] {
		t.Fatal("full Table1 qubit counts overlap the default's")
	}

	d2 := DefaultFig2Config()
	if d2.Nodes <= 0 || len(d2.Workers) == 0 || d2.MaxQubits <= 0 {
		t.Fatalf("default Fig2 config empty: %+v", d2)
	}
}
