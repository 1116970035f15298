package qaoa2

import (
	"fmt"

	"qaoa2/internal/solver"
)

// configTag fingerprints solver configuration that Solver.Name() does
// not reflect, so two configurations sharing a name never share a
// checkpoint. Registry-built solvers (Options.SolverSpec) fingerprint
// by their canonical spec JSON — stable across processes, so the
// serve daemon's resume re-binds to the identical solver. Explicitly
// constructed solvers fingerprint by solver.ConfigTag.
func configTag(opts Options) string {
	backendName := "default"
	if opts.Backend != nil {
		backendName = opts.Backend.Name()
	}
	return fmt.Sprintf("backend:%s|restarts:%d|solver:%s|merge:%s",
		backendName, opts.Restarts,
		solverTag(opts.SolverSpec, opts.Solver),
		solverTag(opts.MergeSpec, opts.MergeSolver))
}

// solverTag fingerprints one solver role: canonical spec when the
// solver came from the registry, solver.ConfigTag otherwise.
func solverTag(spec solver.Spec, s solver.Solver) string {
	if spec.Name != "" {
		return "spec:" + spec.Canonical()
	}
	return solver.ConfigTag(s)
}
