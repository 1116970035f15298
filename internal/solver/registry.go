package solver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qaoa2/internal/backend"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rqaoa"
)

// Spec is the parameterized, JSON-serializable description of a
// registered solver — the one currency every surface trades in: the
// serve wire format carries (name, layers, seed) fields that build a
// Spec, and CLIs build one from flags. Build turns it into a Solver;
// checkpoints identify the built solver by ConfigTag, not by its spec.
//
// Every field except Name is optional; factories read the fields they
// understand and ignore the rest, so one flat struct parameterizes the
// whole registry without per-solver wire types. It holds only what a
// command, the daemon or the benchmark sets: a solver's other knobs
// (anneal sweeps, random trials, the rqaoa cutoff, QAOA restarts,
// explicit composite members) are fields of the solver's own Go type.
type Spec struct {
	// Name selects the registered factory ("qaoa", "gw", "best", ...).
	Name string `json:"name"`

	// QAOA parameterization (qaoa, rqaoa, and the quantum member of
	// the composite solvers).
	Layers   int     `json:"layers,omitempty"`
	MaxIters int     `json:"maxIters,omitempty"`
	Rhobeg   float64 `json:"rhobeg,omitempty"`
	Shots    int     `json:"shots,omitempty"`
	// Backend names the circuit-execution backend, one of
	// backend.NamesHelp's ("" = the solve-time default).
	Backend string `json:"backend,omitempty"`
	// Seed feeds solvers that keep their own deterministic stream
	// (qaoa's sampling); per-sub-graph randomness still derives from
	// the solve's rng, never from here.
	Seed uint64 `json:"seed,omitempty"`
}

// Factory builds a solver from its spec.
type Factory func(Spec) (Solver, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a named solver factory. Registering a duplicate name
// is an error: the registry is the single source of truth for what a
// name means, on every surface at once.
func Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("solver: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("solver: %q already registered", name)
	}
	registry[name] = f
	return nil
}

// mustRegister panics on registration failure; used for the built-in
// table, where a duplicate is a programming error.
func mustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// Names returns every registered solver name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NamesHelp renders the registered names as a "a|b|c" usage string for
// CLI flag help.
func NamesHelp() string { return strings.Join(Names(), "|") }

// Build constructs the solver a spec describes.
func Build(spec Spec) (Solver, error) {
	regMu.RLock()
	f, ok := registry[spec.Name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solver: unknown solver %q (want %s)", spec.Name, NamesHelp())
	}
	return f(spec)
}

// qaoaOptions maps the spec's QAOA fields onto qaoa.Options.
func qaoaOptions(spec Spec) (qaoa.Options, error) {
	be, err := backend.ByName(spec.Backend)
	if err != nil {
		return qaoa.Options{}, err
	}
	return qaoa.Options{
		Layers:   spec.Layers,
		MaxIters: spec.MaxIters,
		Rhobeg:   spec.Rhobeg,
		Shots:    spec.Shots,
		Backend:  be,
		Seed:     spec.Seed,
	}, nil
}

// The built-in registry. Every solver any surface has ever named lives
// here; serve, cmd/qaoa2, cmd/workflow and hpc resolve through this
// single table.
func init() {
	mustRegister("qaoa", func(spec Spec) (Solver, error) {
		opts, err := qaoaOptions(spec)
		if err != nil {
			return nil, err
		}
		return QAOASolver{Opts: opts}, nil
	})
	mustRegister("gw", func(Spec) (Solver, error) {
		return GWSolver{}, nil
	})
	mustRegister("rqaoa", func(spec Spec) (Solver, error) {
		opts, err := qaoaOptions(spec)
		if err != nil {
			return nil, err
		}
		return RQAOASolver{Opts: rqaoa.Options{QAOA: opts}}, nil
	})
	mustRegister("anneal", func(Spec) (Solver, error) {
		return AnnealSolver{}, nil
	})
	mustRegister("random", func(Spec) (Solver, error) {
		return RandomSolver{}, nil
	})
	mustRegister("one-exchange", func(Spec) (Solver, error) {
		return OneExchangeSolver{}, nil
	})
	mustRegister("exact", func(Spec) (Solver, error) {
		return ExactSolver{}, nil
	})
	// best runs qaoa with its own spec's parameters, then gw.
	mustRegister("best", func(spec Spec) (Solver, error) {
		opts, err := qaoaOptions(spec)
		if err != nil {
			return nil, fmt.Errorf("solver: best member qaoa: %w", err)
		}
		return BestOfSolver{Solvers: []Solver{QAOASolver{Opts: opts}, GWSolver{}}}, nil
	})
}
