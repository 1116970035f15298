// Command gridsearch regenerates the paper's Fig. 3 heatmaps and
// Table 1: the QAOA-vs-GW grid search over graph families and
// (layers, rhobeg) parameterizations. The completed grid is the
// knowledge base the ML method selector trains on; -selector retrains
// both selector variants and prints refreshed Go literals for
// solver.DefaultSelector (the "ml-adaptive" registry solver's gate).
//
// Usage:
//
//	gridsearch              # laptop-scale defaults
//	gridsearch -full        # paper-scale grid (hours of CPU)
//	gridsearch -table1      # the high-qubit Table 1 block
//	gridsearch -selector    # retrain the QAOA-vs-GW dispatch gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qaoa2/internal/backend"
	"qaoa2/internal/experiments"
	"qaoa2/internal/mlselect"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exits and streams made testable. Usage errors
// (bad flags, unknown backend names) report to stderr and return 2;
// operational failures return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full     = fs.Bool("full", false, "run at paper scale (nodes 15-25, p 3-8, 4096 shots)")
		table1   = fs.Bool("table1", false, "run the Table 1 high-qubit block instead of Fig. 3")
		selector = fs.Bool("selector", false, "retrain the QAOA-vs-GW selectors on the grid and print solver.DefaultSelector literals")
		seed     = fs.Uint64("seed", 0, "override the experiment seed (0 = config default)")
		backendN = fs.String("backend", "", "QAOA circuit-execution backend: fused|fused-z2|fused-full|dense|noisy (default: fused)")
		restarts = fs.Int("restarts", 1, "optimizer runs per grid point, run in turn; the best final point by exact expectation is kept (1 = the paper's single start)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "gridsearch: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	be, err := backend.ByName(*backendN)
	if err != nil {
		fmt.Fprintf(stderr, "gridsearch: %v\n", err)
		return 2
	}

	var cfg experiments.GridConfig
	switch {
	case *table1 && *full:
		cfg = experiments.FullTable1Config()
	case *table1:
		cfg = experiments.DefaultTable1Config()
	case *full:
		cfg = experiments.FullFig3Config()
	default:
		cfg = experiments.DefaultFig3Config()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Backend = be
	cfg.Restarts = *restarts

	res, err := experiments.RunGrid(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "gridsearch: %v\n", err)
		return 1
	}
	if *table1 {
		fmt.Fprint(stdout, experiments.RenderTable1(res))
	} else {
		fmt.Fprint(stdout, experiments.RenderFig3(res))
	}

	if *selector {
		if err := renderSelectors(stdout, res, cfg.Seed); err != nil {
			fmt.Fprintf(stderr, "gridsearch: %v\n", err)
			return 1
		}
		return 0
	}
	if _, acc, err := experiments.TrainSelector(res.Records, cfg.Seed); err == nil {
		fmt.Fprintf(stdout, "\nQAOA-vs-GW selector hold-out accuracy on this knowledge base: %.3f\n", acc)
	}
	return 0
}

// renderSelectors retrains both selector variants on the completed
// grid and prints the graph-features-only model as the Go literals
// solver.DefaultSelector ships — the regeneration path that keeps the
// ml-adaptive dispatch gate reproducible from the knowledge base.
func renderSelectors(w io.Writer, res *experiments.GridResult, seed uint64) error {
	_, fullAcc, err := experiments.TrainSelector(res.Records, seed)
	if err != nil {
		return err
	}
	model, acc, err := experiments.TrainSolverSelector(res.Records, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nselector hold-out accuracy: %.3f with parameterization features, %.3f graph-only (dispatch gate)\n",
		fullAcc, acc)
	fmt.Fprintf(w, "refreshed literals for internal/solver/adaptive.go:\n\n")
	fmt.Fprintf(w, "var defaultSelectorWeights = [mlselect.FeatureCount]float64{\n\t")
	for i := 0; i < mlselect.FeatureCount; i++ {
		fmt.Fprintf(w, "%.4f,", model.Weights[i])
		if i < mlselect.FeatureCount-1 {
			fmt.Fprint(w, " ")
		}
	}
	fmt.Fprintf(w, "\n}\n\nconst defaultSelectorBias = %.4f\n", model.Bias)
	return nil
}
