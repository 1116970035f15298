package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The CI benchmark-regression gate: `maxcutbench -json -compare
// BENCH_baseline.json -tolerance 20` measures the tracked
// backend/engine configurations, writes the fresh BENCH_<stamp>.json,
// and fails (exit 1) when any configuration present in the baseline
// regressed by more than the tolerance in ns/op. The committed
// baseline starts the perf trajectory; refresh it deliberately (same
// machine class as CI) whenever a PR changes kernel performance on
// purpose.

// comparison is the verdict for one benchmark configuration.
type comparison struct {
	key        string
	baseNs     float64
	freshNs    float64
	deltaPct   float64
	regression bool
}

// configKey identifies a benchmark configuration across reports.
func configKey(r BenchResult) string {
	return fmt.Sprintf("%s/%dq/p%d", r.Backend, r.Qubits, r.Layers)
}

// loadBaseline reads a committed BENCH_*.json report.
func loadBaseline(path string) (BenchReport, error) {
	var rep BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("baseline %s has no results", path)
	}
	return rep, nil
}

// compareReports checks every baseline configuration against the
// fresh run. A configuration missing from the fresh run counts as a
// regression (the gate must not silently narrow). New configurations
// in the fresh run are reported but never fail.
func compareReports(baseline, fresh BenchReport, tolerancePct float64) ([]comparison, error) {
	if tolerancePct <= 0 {
		return nil, fmt.Errorf("tolerance must be positive, got %g%%", tolerancePct)
	}
	freshBy := make(map[string]BenchResult)
	for _, r := range fresh.Results {
		freshBy[configKey(r)] = r
	}
	var out []comparison
	for _, base := range baseline.Results {
		key := configKey(base)
		f, ok := freshBy[key]
		if !ok {
			out = append(out, comparison{key: key, baseNs: base.NsPerOp, freshNs: -1, regression: true})
			continue
		}
		delta := (f.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		out = append(out, comparison{
			key:        key,
			baseNs:     base.NsPerOp,
			freshNs:    f.NsPerOp,
			deltaPct:   delta,
			regression: delta > tolerancePct,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// machineWarning renders a caution line when the baseline was
// measured on different hardware: absolute ns/op comparisons across
// machine classes can exceed the tolerance in either direction, so
// the baseline should be refreshed from a run on the gate's own
// hardware (CI uploads every fresh BENCH_<stamp>.json as an artifact
// for exactly this).
func machineWarning(baseline, fresh BenchMachine) string {
	if sameMachineClass(baseline, fresh) {
		return ""
	}
	return fmt.Sprintf("WARNING: baseline machine (%s, %d CPU, GOMAXPROCS %d, %s, kernel %s) differs from this machine (%s, %d CPU, GOMAXPROCS %d, %s, kernel %s); absolute ns/op deltas are unreliable across machine classes — refresh the baseline from this hardware before trusting the gate\n",
		baseline.CPUModel, baseline.NumCPU, baseline.GoMaxProcs, baseline.GoVersion, tierOrUnknown(baseline.KernelTier),
		fresh.CPUModel, fresh.NumCPU, fresh.GoMaxProcs, fresh.GoVersion, tierOrUnknown(fresh.KernelTier))
}

// tierOrUnknown labels reports from before the kernel-tier field.
func tierOrUnknown(tier string) string {
	if tier == "" {
		return "unknown"
	}
	return tier
}

// sameMachineClass compares the hardware-identity fields (Go version
// alone does not change the class). GOMAXPROCS counts as identity:
// the kernel pool sizes itself from it, so the same silicon with a
// different processor budget measures a different machine. So does the
// mixer-kernel tier: QAOA2_NOAVX512/QAOA2_NOASM change what the same
// silicon measures. Pre-tier baselines (empty field) grandfather in.
func sameMachineClass(a, b BenchMachine) bool {
	return a.GoOS == b.GoOS && a.GoArch == b.GoArch &&
		a.NumCPU == b.NumCPU && a.GoMaxProcs == b.GoMaxProcs &&
		a.CPUModel == b.CPUModel &&
		(a.KernelTier == b.KernelTier || a.KernelTier == "" || b.KernelTier == "")
}

// gateOutcome decides the gate's exit disposition. A configuration
// missing from the fresh run is machine-independent gate narrowing
// and always fails. ns/op regressions measured on the baseline's own
// hardware class fail hard; on foreign hardware an absolute ns/op
// comparison is meaningless, so those degrade to advisory — the run
// reports the deltas and tells the operator to re-baseline rather
// than failing every build on a hardware change. (The fused/dense
// ratio gate below stays armed on any hardware.)
func gateOutcome(foreign bool, deltaFailures, missing int) (fail bool, note string) {
	switch {
	case missing > 0:
		return true, fmt.Sprintf("%d baseline configuration(s) missing from the fresh run — the gate must not silently narrow", missing)
	case deltaFailures == 0:
		return false, "benchmark gate passed"
	case foreign:
		return false, fmt.Sprintf("benchmark gate ADVISORY: %d configuration(s) beyond tolerance, but the baseline is from a different machine class — refresh BENCH_baseline.json from this hardware (CI uploads each run's BENCH_<stamp>.json artifact) to re-arm the gate", deltaFailures)
	default:
		return true, fmt.Sprintf("%d configuration(s) regressed beyond tolerance", deltaFailures)
	}
}

// Machine-independent ratio floors: both sides of each ratio are
// measured in the SAME fresh run, so these checks gate real kernel
// regressions even when the absolute baseline comes from foreign
// hardware (e.g. a heterogeneous CI runner fleet).
const (
	// fusedDenseMinRatio: the fused path has been ≥3× faster than the
	// dense gate walk since the backend-layer PR.
	fusedDenseMinRatio = 3.0
	// z2FullMinRatio: the Z2 symmetry reduction's acceptance floor over
	// the unreduced fused engine — measured ~1.8× at 16q p=3 on the
	// AVX2 tier, ~1.7–1.8× on the AVX-512 tier (the ZMM kernel
	// accelerates the unreduced engine's longer sweeps slightly more,
	// compressing the ratio). The floor sits below that band's noise;
	// losing the reduction entirely would read ~1.0×.
	z2FullMinRatio = 1.5
)

// ratioGate checks the fused-z2-vs-dense and fused-z2-vs-fused-full
// ratios on the 16q/p3 acceptance configuration of the fresh run.
func ratioGate(fresh BenchReport) (ok bool, msg string) {
	var z2, full, dense float64
	for _, r := range fresh.Results {
		if r.Qubits == 16 && r.Layers == 3 {
			switch r.Backend {
			case "fused-z2":
				z2 = r.NsPerOp
			case "fused-full":
				full = r.NsPerOp
			case "dense":
				dense = r.NsPerOp
			}
		}
	}
	if z2 <= 0 || full <= 0 || dense <= 0 {
		return false, "ratio gate: fused-z2/fused-full/dense 16q p3 configurations missing from the fresh run"
	}
	denseRatio := dense / z2
	z2Ratio := full / z2
	if denseRatio < fusedDenseMinRatio {
		return false, fmt.Sprintf("ratio gate FAILED: fused-z2 is only %.1fx faster than dense (floor %.0fx) — kernel regression, independent of baseline hardware", denseRatio, fusedDenseMinRatio)
	}
	if z2Ratio < z2FullMinRatio {
		return false, fmt.Sprintf("ratio gate FAILED: fused-z2 is only %.2fx faster than fused-full (floor %.1fx) — symmetry-reduction regression, independent of baseline hardware", z2Ratio, z2FullMinRatio)
	}
	return true, fmt.Sprintf("ratio gate: fused-z2 %.1fx faster than dense (floor %.0fx), %.2fx faster than fused-full (floor %.1fx)", denseRatio, fusedDenseMinRatio, z2Ratio, z2FullMinRatio)
}

// countMissing tallies baseline configurations absent from the fresh
// run (freshNs < 0 in the comparison).
func countMissing(comps []comparison) int {
	n := 0
	for _, c := range comps {
		if c.freshNs < 0 {
			n++
		}
	}
	return n
}

// renderComparison formats the gate verdict table and returns the
// number of regressions.
func renderComparison(comps []comparison, tolerancePct float64) (string, int) {
	var b strings.Builder
	failures := 0
	fmt.Fprintf(&b, "benchmark regression gate (tolerance %.0f%% ns/op)\n", tolerancePct)
	fmt.Fprintf(&b, "%-28s %14s %14s %9s\n", "config", "baseline ns/op", "fresh ns/op", "delta")
	for _, c := range comps {
		verdict := "ok"
		if c.regression {
			verdict = "REGRESSION"
			failures++
		}
		if c.freshNs < 0 {
			fmt.Fprintf(&b, "%-28s %14.0f %14s %9s  %s (missing from fresh run)\n",
				c.key, c.baseNs, "-", "-", verdict)
			continue
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %+8.1f%%  %s\n",
			c.key, c.baseNs, c.freshNs, c.deltaPct, verdict)
	}
	return b.String(), failures
}
