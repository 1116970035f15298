// Command maxcutbench regenerates the paper's Fig. 4: large unweighted
// G(n, 0.1) instances solved by QAOA² under three sub-solver policies
// (all-QAOA, all-GW "Classic", Best-of) and an exact-leaf control,
// compared against GW on the full graph and a random partition,
// reported relative to the QAOA series exactly as in the paper.
//
// Usage:
//
//	maxcutbench            # Fig. 4 at the paper's scale (500..2500 nodes)
//	maxcutbench -seed 7    # the same with another instance seed
//	maxcutbench -json      # backend microbenchmarks → BENCH_<stamp>.json
//	maxcutbench -json -compare BENCH_baseline.json -tolerance 20
//	                       # CI regression gate: exit 1 on >20% ns/op slowdown
//	maxcutbench -backend fused-z2,fused-full,dense
//	                       # A/B: benchmark exactly these backends (16q p=3)
//	maxcutbench -backend fused-z2,fused-full -qubits 20
//	                       # same A/B at the 20-qubit scale point
//	maxcutbench -cpufeatures
//	                       # print the mixer-kernel tier (avx512/avx2/
//	                       # portable) and env opt-outs in effect
//	maxcutbench -instance petersen
//	                       # solve an embedded benchmark fixture
//	maxcutbench -instance g14 -gset-dir ~/gset
//	                       # solve a downloaded Gset instance and report
//	                       # the cut against the best-known value
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	root "qaoa2"
	"qaoa2/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("maxcutbench: ")
	var (
		seed      = flag.Uint64("seed", 0, "override the experiment seed (0 = config default)")
		jsonOut   = flag.Bool("json", false, "run the backend microbenchmarks and write machine-readable results to BENCH_<stamp>.json instead of the Fig. 4 table")
		compare   = flag.String("compare", "", "baseline BENCH_*.json to gate against (implies -json); exit 1 on regression")
		tolerance = flag.Float64("tolerance", 20, "allowed ns/op slowdown in percent for -compare")
		backends  = flag.String("backend", "", "comma-separated backend names (e.g. fused-z2,fused-full,dense) to benchmark as a reproducible A/B subset (implies -json); incompatible with -compare")
		qubits    = flag.Int("qubits", 16, "sub-graph qubit count (-backend A/B shape, -instance device budget)")
		layers    = flag.Int("layers", 3, "ansatz depth p (-backend A/B shape, -instance qaoa solvers)")
		instance  = flag.String("instance", "", "solve a cataloged benchmark instance (a Gset name like g14, or an embedded fixture like petersen) and report the cut against its best-known value")
		gsetDir   = flag.String("gset-dir", ".", "directory holding downloaded Gset files for -instance (embedded fixtures need none)")
		subSolver = flag.String("solver", "best", "sub-graph solver registry name for -instance")
		mergeName = flag.String("merge", "gw", "merge solver registry name for -instance")
		features  = flag.Bool("cpufeatures", false, "print the mixer-kernel tier runtime detection selected and the environment opt-outs in effect, then exit")
	)
	flag.Parse()

	if *features {
		printCPUFeatures(os.Stdout)
		return
	}

	if *instance != "" {
		if err := runInstance(os.Stdout, *instance, *gsetDir, *subSolver, *mergeName, *qubits, *layers, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *backends != "" {
		if *compare != "" {
			log.Fatal("-backend selects an ad-hoc A/B subset; the -compare gate needs the full tracked configuration set")
		}
		var configs []benchConfig
		for _, name := range strings.Split(*backends, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			configs = append(configs, benchConfig{backend: name, qubits: *qubits, layers: *layers})
		}
		if len(configs) == 0 {
			log.Fatal("-backend given but no backend names parsed")
		}
		fresh, name, err := runJSONBench(configs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", name)
		for _, r := range fresh.Results {
			fmt.Printf("%-12s %2dq p%d  %12.0f ns/op  %6d B/op  %4d allocs/op\n",
				r.Backend, r.Qubits, r.Layers, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		return
	}

	if *jsonOut || *compare != "" {
		fresh, name, err := runJSONBench(benchConfigs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", name)
		if *compare != "" {
			baseline, err := loadBaseline(*compare)
			if err != nil {
				log.Fatal(err)
			}
			comps, err := compareReports(baseline, fresh, *tolerance)
			if err != nil {
				log.Fatal(err)
			}
			if warn := machineWarning(baseline.Machine, fresh.Machine); warn != "" {
				fmt.Print(warn)
			}
			table, failures := renderComparison(comps, *tolerance)
			fmt.Print(table)
			ratioOK, ratioMsg := ratioGate(fresh)
			fmt.Println(ratioMsg)
			missing := countMissing(comps)
			foreign := !sameMachineClass(baseline.Machine, fresh.Machine)
			fail, note := gateOutcome(foreign, failures-missing, missing)
			if !ratioOK {
				log.Fatal(ratioMsg)
			}
			if fail {
				log.Fatal(note)
			}
			fmt.Println(note)
		}
		return
	}

	cfg := experiments.DefaultFig4Config()
	if *seed != 0 {
		cfg.Seed = *seed
	}

	rows, err := experiments.RunFig4(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderFig4(rows))
}

// printCPUFeatures reports the mixer-kernel tier that runtime CPUID and
// XGETBV detection selected for this process, plus the environment
// opt-outs that can force lower tiers. The tier is part of the bench
// machine-class identity (BENCH_*.json), so operators comparing runs
// across machines check this first.
func printCPUFeatures(w io.Writer) {
	fmt.Fprintf(w, "kernel tier: %s\n", root.KernelTier())
	for _, v := range []struct{ name, effect string }{
		{"QAOA2_NOASM", "disables all assembly kernels (portable tier)"},
		{"QAOA2_NOAVX512", "disables the AVX-512 tile kernel (AVX2 tier)"},
	} {
		state := "unset"
		if os.Getenv(v.name) != "" {
			state = "SET"
		}
		fmt.Fprintf(w, "%-16s %-5s — %s\n", v.name, state, v.effect)
	}
}
