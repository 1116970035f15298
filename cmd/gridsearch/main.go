// Command gridsearch regenerates the paper's Fig. 3 heatmaps and
// Table 1: the QAOA-vs-GW grid search over graph families and
// (layers, rhobeg) parameterizations.
//
// Usage:
//
//	gridsearch              # laptop-scale defaults
//	gridsearch -full        # paper-scale grid (hours of CPU)
//	gridsearch -table1      # the high-qubit Table 1 block
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qaoa2/internal/backend"
	"qaoa2/internal/experiments"
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
		seed     = fs.Uint64("seed", 0, "override the experiment seed (0 = config default)")
		backendN = fs.String("backend", "", "QAOA circuit-execution backend: "+backend.NamesHelp()+" (default: fused)")
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
	return 0
}
