// Package qaoa2 is a pure-Go reproduction of "Hybrid Classical-Quantum
// Simulation of MaxCut using QAOA-in-QAOA" (Esposito & Danzig, 2024):
// the QAOA² divide-and-conquer MaxCut solver together with every
// substrate it needs — a statevector quantum simulator behind a
// pluggable execution-backend layer (with a fused diagonal-cost fast
// path as the default), a Classiq-style circuit synthesis engine, a
// COBYLA optimizer, a Goemans-Williamson implementation with
// from-scratch SDP solvers, greedy-modularity graph partitioning, and
// a SLURM/MPI-style workflow simulator.
//
// This package is the public facade, and it exports one workflow:
// build or generate a graph, partition it, solve the leaves, merge.
// Solve runs it; the leaf and merge solvers, the execution backends,
// the Ising/QUBO encodings that reduce to it, the solve daemon's
// client and the cluster scheduler behind the paper's Fig. 1 are the
// knobs around it. A name is exported here only when README, an
// example, a command or a root doc test uses it, or a kept function's
// signature needs it; TestFacadeNamesAreUsed enforces that rule. The
// internal packages carry everything else.
//
//	g := qaoa2.ErdosRenyi(500, 0.1, qaoa2.Unweighted, qaoa2.NewRand(1))
//	res, err := qaoa2.Solve(g, qaoa2.Options{
//		MaxQubits: 16,
//		Solver:    qaoa2.BestOfSolver{Solvers: []qaoa2.SubSolver{
//			qaoa2.QAOASolver{}, qaoa2.GWSolver{},
//		}},
//	})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-reproduction results.
package qaoa2

import (
	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/hpc"
	"qaoa2/internal/ising"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/runtime"
	"qaoa2/internal/sdp"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// Graph types and generators.
type (
	// Graph is a weighted undirected graph over nodes 0..N-1.
	Graph = graph.Graph
	// Weighting selects the generated edge-weight distribution.
	Weighting = graph.Weighting
	// Rand is the deterministic random generator used everywhere.
	Rand = rng.Rand
)

// Weight distributions for generated graphs.
const (
	// Unweighted assigns weight 1 to every edge.
	Unweighted = graph.Unweighted
	// UniformWeights draws weights uniformly from [0, 1).
	UniformWeights = graph.UniformWeights
)

// NewGraph creates an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewRand returns a deterministic random generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// ErdosRenyi samples the G(n,p) random graph family used throughout the
// paper's evaluation.
func ErdosRenyi(n int, p float64, w Weighting, r *Rand) *Graph {
	return graph.ErdosRenyi(n, p, w, r)
}

// Cut is a bipartition with its cut value.
type Cut = maxcut.Cut

// BruteForce solves MaxCut exactly (≤ 30 nodes).
func BruteForce(g *Graph) (Cut, error) { return maxcut.BruteForce(g) }

// RandomCut returns the best of `trials` random bipartitions.
func RandomCut(g *Graph, trials int, r *Rand) Cut { return maxcut.RandomCut(g, trials, r) }

// QAOA (single-device) solver.
type (
	// QAOAOptions configures a QAOA run.
	QAOAOptions = qaoa.Options
	// QAOAResult reports a QAOA run.
	QAOAResult = qaoa.Result
)

// SolveQAOA runs the variational QAOA MaxCut solver on a single
// (simulated) quantum device.
func SolveQAOA(g *Graph, opts QAOAOptions, r *Rand) (*QAOAResult, error) {
	return qaoa.Solve(g, opts, r)
}

// Circuit-execution backends (the pluggable simulation layer behind
// QAOAOptions.Backend, which a QAOA² run sets inside its solvers, e.g.
// QAOASolver{Opts: QAOAOptions{Backend: ...}}; see DESIGN.md).
type (
	// Backend prepares executable QAOA ansätze for a graph.
	Backend = backend.Backend
	// Ansatz is a prepared ansatz: Evaluate(γ⃗, β⃗) → (⟨H_C⟩, state).
	Ansatz = backend.Ansatz
	// BackendConfig carries depth and synthesis preferences to
	// Backend.Prepare.
	BackendConfig = backend.Config
	// DenseBackend is the reference synth→qsim gate walk.
	DenseBackend = backend.Dense
	// FusedBackend is the diagonal-cost fast path (the default). It
	// simulates only the 2^(n−1) Z2 even-sector amplitudes unless Full
	// is set (backend name "fused-full"), the one way to run the
	// unreduced engine. Its sweeps split over the process's kernel pool,
	// one worker per core.
	FusedBackend = backend.Fused
)

// BackendByName resolves a CLI backend name, one of
// BackendNamesHelp's ("" selects the default rule at solve time).
func BackendByName(name string) (Backend, error) { return backend.ByName(name) }

// BackendNamesHelp renders the backend names as an "a|b|c" usage string
// for CLI flag help.
func BackendNamesHelp() string { return backend.NamesHelp() }

// KernelTier reports the mixer-kernel tier this process runs:
// "avx512", "avx2", or "portable". It is resolved once, at process
// start, from CPUID/XGETBV feature detection capped by the
// QAOA2_NOASM (portable) and QAOA2_NOAVX512 (avx2) environment
// variables; `maxcutbench -cpufeatures` prints it alongside the
// opt-outs in effect.
func KernelTier() string { return qsim.KernelTier() }

// EvaluateBatch evaluates K (γ⃗, β⃗) parameter vectors one after another
// on the ansatz and fills energies[k] with vector k's exact energy. It
// overwrites the state the last Evaluate returned.
func EvaluateBatch(a Ansatz, gammas, betas [][]float64, energies []float64) error {
	return backend.EvaluateBatch(a, gammas, betas, energies)
}

// Goemans-Williamson.
type (
	// GWOptions configures SolveGW's SDP relaxation.
	GWOptions = sdp.Options
	// GWResult reports a GW run.
	GWResult = gw.Result
)

// SolveGW runs Goemans-Williamson (SDP + 30-fold hyperplane rounding).
func SolveGW(g *Graph, opts GWOptions, r *Rand) (*GWResult, error) {
	return gw.Solve(g, opts, r)
}

// QAOA² divide-and-conquer.
type (
	// Options configures the QAOA² solver.
	Options = qaoa2.Options
	// Result reports a QAOA² run.
	Result = qaoa2.Result
	// SubReport records one solved first-level sub-graph, attributed
	// to the solver that actually produced the kept cut.
	SubReport = runtime.SubReport
	// RuntimeEvent is one completed task of the executor's DAG
	// (streamed through Options.OnRuntimeEvent).
	RuntimeEvent = runtime.Event
	// SubSolver is the pluggable per-sub-graph solver interface.
	SubSolver = solver.Solver
	// QAOASolver solves sub-graphs with simulated QAOA.
	QAOASolver = solver.QAOASolver
	// GWSolver solves sub-graphs classically with GW.
	GWSolver = solver.GWSolver
	// BestOfSolver keeps the best cut among its inner solvers.
	BestOfSolver = solver.BestOfSolver
	// AnnealSolver solves sub-graphs with simulated annealing.
	AnnealSolver = solver.AnnealSolver
	// ExactSolver brute-forces sub-graphs (tests, small merges).
	ExactSolver = solver.ExactSolver
)

// Solve runs the QAOA² divide-and-conquer MaxCut solver.
func Solve(g *Graph, opts Options) (*Result, error) { return qaoa2.Solve(g, opts) }

// SummarizeSubReports aggregates first-level sub-reports per solver
// for logs.
func SummarizeSubReports(reports []SubReport) string {
	return qaoa2.SummarizeSubReports(reports)
}

// Solver registry (internal/solver): the single place solvers are
// named and constructed. Every surface — BuildSolver, the serve
// daemon's wire format, cmd/qaoa2 and cmd/workflow flags, hpc remote
// dispatch — resolves names through this one table, so every
// registered solver (rqaoa, random and one-exchange included) is
// buildable by name.

// SolverSpec is the parameterized, JSON-serializable description of a
// registry solver. BuildSolver turns it into the solver that
// Options.Solver / MergeSolver take.
type SolverSpec = solver.Spec

// BuildSolver constructs the solver a spec describes (a bare name is
// SolverSpec{Name: name}).
func BuildSolver(spec SolverSpec) (SubSolver, error) { return solver.Build(spec) }

// SolverNames lists every registered solver name, sorted.
func SolverNames() []string { return solver.Names() }

// SolverNamesHelp renders the registered names as an "a|b|c" usage
// string for CLI flag help.
func SolverNamesHelp() string { return solver.NamesHelp() }

// Ising/QUBO workload plane (internal/ising; see DESIGN.md "The
// Ising/QUBO plane"). A general Ising Hamiltonian E(s) = Σ J_ij s_i s_j
// + Σ h_i s_i + c solves as its exact ancilla MaxCut reduction on N+1
// nodes, so every solver, backend and option of the MaxCut stack
// applies unchanged. Problem constructors keep the original instance
// data so results decode back to problem-level answers with
// feasibility verdicts.
type (
	// IsingHamiltonian is a minimization Ising Hamiltonian over ±1
	// spins: couplings J_ij, local fields h_i, constant offset.
	IsingHamiltonian = ising.Hamiltonian
	// QUBO is the {0,1} quadratic form x^T Q x + c; ToIsing converts
	// it exactly.
	QUBO = ising.QUBO
	// Problem binds a Hamiltonian to the problem it encodes (kind,
	// instance data) so assignments decode with feasibility checks.
	Problem = ising.Problem
	// Assignment is a decoded problem-level solution.
	Assignment = ising.Assignment
	// IsingResult reports a SolveIsing / SolveProblem run.
	IsingResult = qaoa2.IsingResult
)

// NewIsing creates an empty Hamiltonian over n spins.
func NewIsing(n int) *IsingHamiltonian { return ising.New(n) }

// NewQUBO creates an empty QUBO over n binary variables.
func NewQUBO(n int) *QUBO { return ising.NewQUBO(n) }

// WeightedMIS encodes maximum-weight independent set with penalty-
// weighted conflict terms (penalty 0 picks a safe default).
func WeightedMIS(g *Graph, weights []float64, penalty float64) (*Problem, error) {
	return ising.WeightedMIS(g, weights, penalty)
}

// NumberPartition encodes two-way number partitioning of nums; the
// decoded Objective is the imbalance |Σ s_i·a_i| (0 = perfect split).
func NumberPartition(nums []float64) (*Problem, error) { return ising.NumberPartition(nums) }

// ProblemFromHamiltonian wraps a raw Hamiltonian as an Ising problem
// (objective = energy, always feasible).
func ProblemFromHamiltonian(h *IsingHamiltonian) *Problem { return ising.FromHamiltonian(h) }

// SolveIsing minimizes an Ising Hamiltonian through the QAOA² stack:
// its exact ancilla MaxCut reduction runs through Solve (partitioning,
// checkpoints, every solver and its attribution apply) and the cut
// decodes back to spins. The reported Energy always comes from the
// Hamiltonian.
func SolveIsing(h *IsingHamiltonian, opts Options) (*IsingResult, error) {
	return qaoa2.SolveIsing(h, opts)
}

// SolveProblem runs SolveIsing on p's Hamiltonian and decodes the
// spins into a problem-level Assignment (objective, feasibility,
// selected vertices).
func SolveProblem(p *Problem, opts Options) (*IsingResult, Assignment, error) {
	return qaoa2.SolveProblem(p, opts)
}

// Solve service (the long-running multi-tenant daemon behind
// cmd/qaoa2d; see DESIGN.md). The server owns a bounded priority job
// queue with admission control over the executor's worker budgets, a
// graph-fingerprint result cache that coalesces duplicate
// submissions, NDJSON progress streaming, and graceful drain with
// checkpoint handoff.
type (
	// ServeConfig configures NewServeServer.
	ServeConfig = serve.Config
	// ServeServer is the long-running solve service.
	ServeServer = serve.Server
	// ServeClient is the Go client against a running qaoa2d daemon.
	ServeClient = serve.Client
	// SolveRequest is one solve submission (POST /v1/solve body).
	SolveRequest = serve.SolveRequest
	// GraphSpec is the wire form of a MaxCut instance.
	GraphSpec = serve.GraphSpec
	// ServeEvent is one streamed job-progress event.
	ServeEvent = serve.Event
	// RemoteSolver dispatches sub-graph solves to a qaoa2d daemon.
	RemoteSolver = hpc.RemoteSolver
)

// NewServeServer starts the solve service (restoring persisted jobs
// from cfg.StateDir when set).
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// GraphSpecOf converts a graph into its submission wire form.
func GraphSpecOf(g *Graph) GraphSpec { return serve.GraphSpecOf(g) }

// DensityPolicy routes sparse sub-graphs to the quantum solver and
// dense ones to the classical solver, the naive rule the paper's grid
// search motivates. Solve with it runs the paper's Fig. 2 workflow:
// Options.Parallelism is the worker count, and each SubReport names
// the member a sub-graph was routed to.
func DensityPolicy(threshold float64, quantum, classical SubSolver) SubSolver {
	return hpc.DensityPolicy(threshold, quantum, classical)
}

// Cluster scheduling (the SLURM-substitute simulator behind Fig. 1).
type (
	// Resources is an allocatable bundle of nodes and QPUs.
	Resources = hpc.Resources
	// Step is one phase of a hybrid job.
	Step = hpc.Step
	// Job is a sequential chain of steps, monolithic or heterogeneous.
	Job = hpc.Job
	// ScheduleMetrics summarizes a simulated schedule.
	ScheduleMetrics = hpc.Metrics
)

// SimulateCluster runs the discrete-event SLURM-like scheduler over the
// jobs and returns makespan/idle-time metrics.
func SimulateCluster(cluster Resources, jobs []Job) (*ScheduleMetrics, error) {
	return hpc.Simulate(cluster, jobs)
}
