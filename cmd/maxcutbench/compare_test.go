package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(ns map[string]float64) BenchReport {
	var rep BenchReport
	for key, v := range ns {
		parts := strings.Split(key, "/")
		rep.Results = append(rep.Results, BenchResult{
			Backend: parts[0],
			Qubits:  map[string]int{"20q": 20, "16q": 16, "12q": 12}[parts[1]],
			Layers:  map[string]int{"p3": 3, "p2": 2}[parts[2]],
			NsPerOp: v,
		})
	}
	return rep
}

func TestCompareReportsGate(t *testing.T) {
	baseline := report(map[string]float64{
		"fused/16q/p3": 2_000_000,
		"dense/16q/p3": 30_000_000,
		"fused/12q/p2": 200_000,
	})

	// Within tolerance (incl. an improvement): gate passes.
	ok := report(map[string]float64{
		"fused/16q/p3": 2_300_000,  // +15%
		"dense/16q/p3": 25_000_000, // -17%
		"fused/12q/p2": 200_000,    // flat
	})
	comps, err := compareReports(baseline, ok, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, failures := renderComparison(comps, 20); failures != 0 {
		t.Fatalf("clean run flagged %d regressions", failures)
	}

	// One config beyond tolerance: exactly that one fails.
	bad := report(map[string]float64{
		"fused/16q/p3": 2_500_000, // +25%
		"dense/16q/p3": 30_000_000,
		"fused/12q/p2": 200_000,
	})
	comps, err = compareReports(baseline, bad, 20)
	if err != nil {
		t.Fatal(err)
	}
	table, failures := renderComparison(comps, 20)
	if failures != 1 {
		t.Fatalf("%d regressions flagged, want 1:\n%s", failures, table)
	}
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "fused/16q/p3") {
		t.Fatalf("verdict table:\n%s", table)
	}

	// A configuration missing from the fresh run fails the gate.
	missing := report(map[string]float64{
		"fused/16q/p3": 2_000_000,
		"dense/16q/p3": 30_000_000,
	})
	comps, err = compareReports(baseline, missing, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, failures := renderComparison(comps, 20); failures != 1 {
		t.Fatalf("missing config not flagged (%d failures)", failures)
	}

	// Extra fresh configs never fail.
	extra := report(map[string]float64{
		"fused/16q/p3": 2_000_000,
		"dense/16q/p3": 30_000_000,
		"fused/12q/p2": 200_000,
	})
	extra.Results = append(extra.Results, BenchResult{Backend: "noisy", Qubits: 16, Layers: 3, NsPerOp: 1})
	comps, err = compareReports(baseline, extra, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, failures := renderComparison(comps, 20); failures != 0 {
		t.Fatal("extra fresh config failed the gate")
	}

	if _, err := compareReports(baseline, ok, 0); err == nil {
		t.Fatal("non-positive tolerance accepted")
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_baseline.json")
	rep := report(map[string]float64{"fused/16q/p3": 1000})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].NsPerOp != 1000 {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := loadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(path); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

func TestMachineWarning(t *testing.T) {
	a := BenchMachine{GoOS: "linux", GoArch: "amd64", GoVersion: "go1.24.0", NumCPU: 1, GoMaxProcs: 1, CPUModel: "Xeon"}
	if w := machineWarning(a, a); w != "" {
		t.Fatalf("same machine warned: %q", w)
	}
	b := a
	b.NumCPU = 4
	b.CPUModel = "EPYC"
	w := machineWarning(a, b)
	if !strings.Contains(w, "WARNING") || !strings.Contains(w, "EPYC") {
		t.Fatalf("mismatch warning: %q", w)
	}
	// GOMAXPROCS alone changes the machine class: the kernel pool sizes
	// itself from it, so the same silicon measures differently.
	c := a
	c.GoMaxProcs = 8
	w = machineWarning(a, c)
	if !strings.Contains(w, "WARNING") || !strings.Contains(w, "GOMAXPROCS 8") {
		t.Fatalf("gomaxprocs mismatch warning: %q", w)
	}
}

func TestGateOutcome(t *testing.T) {
	if fail, _ := gateOutcome(false, 0, 0); fail {
		t.Fatal("clean same-machine run failed")
	}
	if fail, _ := gateOutcome(true, 0, 0); fail {
		t.Fatal("clean foreign-machine run failed")
	}
	if fail, _ := gateOutcome(false, 2, 0); !fail {
		t.Fatal("same-machine regression did not fail")
	}
	fail, note := gateOutcome(true, 2, 0)
	if fail {
		t.Fatal("foreign-machine deltas failed the gate instead of degrading to advisory")
	}
	if !strings.Contains(note, "ADVISORY") {
		t.Fatalf("advisory note: %q", note)
	}
	// A missing configuration is machine-independent narrowing: it
	// fails even on foreign hardware.
	if fail, note := gateOutcome(true, 0, 1); !fail || !strings.Contains(note, "missing") {
		t.Fatalf("missing config on foreign hardware did not fail: %v %q", fail, note)
	}
}

func TestRatioGate(t *testing.T) {
	healthy := report(map[string]float64{
		"fused-z2/16q/p3":   1_000_000,
		"fused-full/16q/p3": 1_900_000,  // 1.9x ≥ 1.5x floor
		"dense/16q/p3":      30_000_000, // 30x ≥ 3x floor
	})
	if ok, msg := ratioGate(healthy); !ok {
		t.Fatalf("healthy ratios failed: %s", msg)
	}
	slowVsDense := report(map[string]float64{
		"fused-z2/16q/p3":   15_000_000,
		"fused-full/16q/p3": 28_000_000,
		"dense/16q/p3":      30_000_000, // 2x < 3x floor
	})
	if ok, msg := ratioGate(slowVsDense); ok || !strings.Contains(msg, "FAILED") {
		t.Fatalf("2x dense ratio passed: %s", msg)
	}
	// The reduction losing its edge over fused-full fails even when the
	// dense ratio is healthy.
	slowVsFull := report(map[string]float64{
		"fused-z2/16q/p3":   1_500_000,
		"fused-full/16q/p3": 1_900_000, // 1.27x < 1.5x floor
		"dense/16q/p3":      30_000_000,
	})
	if ok, msg := ratioGate(slowVsFull); ok || !strings.Contains(msg, "fused-full") {
		t.Fatalf("1.27x z2 ratio passed: %s", msg)
	}
	if ok, _ := ratioGate(report(map[string]float64{"fused-z2/16q/p3": 1})); ok {
		t.Fatal("missing fused-full/dense configs passed the ratio gate")
	}
}

// TestCountMissing: only comparisons with no fresh measurement
// (freshNs < 0) count as missing.
func TestCountMissing(t *testing.T) {
	comps := []comparison{
		{key: "a", freshNs: -1},
		{key: "b", freshNs: 10},
		{key: "c", freshNs: -1},
	}
	if got := countMissing(comps); got != 2 {
		t.Fatalf("countMissing = %d, want 2", got)
	}
	if got := countMissing(nil); got != 0 {
		t.Fatalf("countMissing(nil) = %d, want 0", got)
	}
}

func TestMachineClassKernelTier(t *testing.T) {
	a := BenchMachine{GoOS: "linux", GoArch: "amd64", NumCPU: 1, GoMaxProcs: 1, CPUModel: "Xeon", KernelTier: "avx512"}
	b := a
	b.KernelTier = "avx2"
	if sameMachineClass(a, b) {
		t.Fatal("different kernel tiers counted as the same machine class")
	}
	if w := machineWarning(a, b); !strings.Contains(w, "avx512") || !strings.Contains(w, "avx2") {
		t.Fatalf("tier mismatch warning: %q", w)
	}
	// Pre-tier baselines (no kernel_tier field) grandfather in.
	b.KernelTier = ""
	if !sameMachineClass(a, b) {
		t.Fatal("pre-tier baseline did not grandfather in")
	}
}
