package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	root "qaoa2"
	"qaoa2/internal/qaoa"
)

// Machine-readable backend microbenchmarks (-json): one optimizer-loop
// objective evaluation per backend/configuration, measured with the
// standard testing.Benchmark harness and written to BENCH_<stamp>.json
// so the perf trajectory is tracked across PRs (EXPERIMENTS.md holds
// the human-readable log; these files are the raw series).

// benchConfig is one measured (backend, ansatz shape) point.
type benchConfig struct {
	backend string
	qubits  int
	layers  int
}

// benchConfigs are the tracked points: the acceptance benchmark
// (16-qubit p=3 across the default Z2-reduced fused path, its
// unreduced fused-full control and the dense oracle), a smaller fused
// shape as a dispatch-overhead sentinel, and a 20-qubit point where
// the half-vector's memory advantage shows beyond the L2-resident
// sizes. Each row runs on the shared kernel pool, the only parallelism
// inside a leaf; its one-core against all-core curve is the workflow
// demo's scaling table (experiments.RunEngineScaling), not a row here.
var benchConfigs = []benchConfig{
	{"fused-z2", 16, 3},
	{"fused-full", 16, 3},
	{"dense", 16, 3},
	{"fused-z2", 12, 2},
	{"fused-z2", 20, 3},
}

// benchRounds is the best-of count for every measurement: the harness
// runs each configuration this many times and keeps the fastest round.
// Scheduler/load noise on a shared runner only ever ADDS time, so the
// minimum is the stable estimator — single rounds were observed to
// drift past the 20% gate tolerance on an otherwise idle 1-CPU box.
const benchRounds = 3

// bestOf runs a benchmark body benchRounds times and returns the
// round with the lowest ns/op.
func bestOf(body func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for round := 0; round < benchRounds; round++ {
		res := testing.Benchmark(body)
		if round == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return best
}

// BenchResult is one benchmark measurement in the JSON report.
type BenchResult struct {
	Backend     string  `json:"backend"`
	Qubits      int     `json:"qubits"`
	Layers      int     `json:"layers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchMachine is the machine line of the JSON report.
type BenchMachine struct {
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// KernelTier is the mixer-kernel tier runtime detection selected
	// ("avx512", "avx2", "portable"). Part of the machine-class
	// identity: the same silicon with QAOA2_NOAVX512=1 measures a
	// different machine.
	KernelTier string `json:"kernel_tier,omitempty"`
}

// BenchReport is the BENCH_<stamp>.json schema.
type BenchReport struct {
	Timestamp string        `json:"timestamp"`
	Machine   BenchMachine  `json:"machine"`
	Results   []BenchResult `json:"results"`
}

// runJSONBench measures the given configurations and writes the
// report; it returns the report and the written file name (the
// -compare gate reuses the report).
func runJSONBench(configs []benchConfig) (BenchReport, string, error) {
	stamp := time.Now().UTC()
	report := BenchReport{
		Timestamp: stamp.Format(time.RFC3339),
		Machine: BenchMachine{
			GoOS:       runtime.GOOS,
			GoArch:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			KernelTier: root.KernelTier(),
		},
	}
	for _, cfg := range configs {
		be, err := root.BackendByName(cfg.backend)
		if err != nil {
			return report, "", err
		}
		g := root.ErdosRenyi(cfg.qubits, 0.5, root.Unweighted, root.NewRand(99))
		ans, err := be.Prepare(g, root.BackendConfig{Layers: cfg.layers})
		if err != nil {
			return report, "", err
		}
		gammas, betas := qaoa.InitialParameters(cfg.layers)
		res := bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ans.Evaluate(gammas, betas); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Results = append(report.Results, BenchResult{
			Backend:     cfg.backend,
			Qubits:      cfg.qubits,
			Layers:      cfg.layers,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	name := fmt.Sprintf("BENCH_%s.json", stamp.Format("20060102_150405"))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return report, "", err
	}
	return report, name, os.WriteFile(name, append(data, '\n'), 0o644)
}

// cpuModel best-effort reads the CPU model line (Linux); empty
// elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
