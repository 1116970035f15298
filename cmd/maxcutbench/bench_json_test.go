package main

import (
	"os"
	"testing"
)

// TestRunJSONBenchWritesLoadableReport drives the -json measurement
// path on one tiny configuration: the written BENCH_<stamp>.json must
// round-trip through loadBaseline (the exact reader the -compare gate
// uses) with sane measurements, one result per configuration.
func TestRunJSONBenchWritesLoadableReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark rounds")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	fresh, name, err := runJSONBench([]benchConfig{{backend: "fused-z2", qubits: 6, layers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Results) != 1 {
		t.Fatalf("want one kernel result, got %+v", fresh.Results)
	}
	for _, r := range fresh.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Fatalf("degenerate measurement %+v", r)
		}
	}
	if fresh.Machine.GoOS == "" || fresh.Machine.NumCPU <= 0 {
		t.Fatalf("machine line incomplete: %+v", fresh.Machine)
	}

	loaded, err := loadBaseline(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(fresh.Results) || loaded.Results[0].Backend != "fused-z2" {
		t.Fatalf("report did not round-trip: %+v", loaded.Results)
	}
}
