// Package qaoa2 is a pure-Go reproduction of "Hybrid Classical-Quantum
// Simulation of MaxCut using QAOA-in-QAOA" (Esposito & Danzig, 2024):
// the QAOA² divide-and-conquer MaxCut solver together with every
// substrate it needs — a statevector quantum simulator behind a
// pluggable execution-backend layer (with a fused diagonal-cost fast
// path as the default), a Classiq-style circuit synthesis engine, a
// COBYLA optimizer, a
// Goemans-Williamson implementation with from-scratch SDP solvers,
// greedy-modularity graph partitioning, and a SLURM/MPI-style workflow
// simulator.
//
// This package is the public facade: it re-exports the stable surface
// of the internal packages so downstream users import a single path.
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
	"qaoa2/internal/faults"
	"qaoa2/internal/fleet"
	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/hpc"
	"qaoa2/internal/ising"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/paraminit"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/qsim"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/rqaoa"
	"qaoa2/internal/runtime"
	"qaoa2/internal/sdp"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
	"qaoa2/internal/synth"
)

// Graph types and generators.
type (
	// Graph is a weighted undirected graph over nodes 0..N-1.
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
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

// Cut results and classical baselines.
type (
	// Cut is a bipartition with its cut value.
	Cut = maxcut.Cut
	// AnnealOptions configures SimulatedAnnealing.
	AnnealOptions = maxcut.AnnealOptions
)

// BruteForce solves MaxCut exactly (≤ 30 nodes).
func BruteForce(g *Graph) (Cut, error) { return maxcut.BruteForce(g) }

// RandomCut returns the best of `trials` random bipartitions.
func RandomCut(g *Graph, trials int, r *Rand) Cut { return maxcut.RandomCut(g, trials, r) }

// OneExchange runs the 1-swap local search baseline.
func OneExchange(g *Graph, r *Rand) Cut { return maxcut.OneExchange(g, r) }

// SimulatedAnnealing runs Metropolis annealing for MaxCut.
func SimulatedAnnealing(g *Graph, opts AnnealOptions, r *Rand) Cut {
	return maxcut.SimulatedAnnealing(g, opts, r)
}

// QAOA (single-device) solver.
type (
	// QAOAOptions configures a QAOA run.
	QAOAOptions = qaoa.Options
	// QAOAResult reports a QAOA run.
	QAOAResult = qaoa.Result
	// SynthPreferences forwards synthesis-engine preferences.
	SynthPreferences = synth.Preferences
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
	// BackendConfig carries depth/synthesis/seed to Backend.Prepare.
	BackendConfig = backend.Config
	// DenseBackend is the reference synth→qsim gate walk.
	DenseBackend = backend.Dense
	// FusedBackend is the diagonal-cost fast path (the default). It
	// simulates only the 2^(n−1) Z2 even-sector amplitudes unless Full
	// is set (or QAOA2_NOZ2 is in the environment). Its sweeps split
	// over the process's kernel pool, one worker per core.
	FusedBackend = backend.Fused
	// NoisyBackend averages trajectory-sampled Pauli noise.
	NoisyBackend = backend.Noisy
)

// BackendByName resolves a CLI backend name ("fused" and its alias
// "fused-z2", the unreduced "fused-full", "dense", "noisy"; "" selects
// the default rule at solve time).
func BackendByName(name string) (Backend, error) { return backend.ByName(name) }

// KernelTier reports which mixer-kernel tier runtime feature detection
// selected for this process: "avx512", "avx2", or "portable". The
// QAOA2_NOASM and QAOA2_NOAVX512 environment variables force lower
// tiers; `maxcutbench -cpufeatures` prints this alongside the opt-outs
// in effect.
func KernelTier() string { return qsim.KernelTier() }

// BatchEvaluator is the optional batched extension of Ansatz
// (implemented by the fused backend): EvaluateBatch evaluates K
// parameter vectors over persistent per-worker state buffers.
type BatchEvaluator = backend.BatchEvaluator

// EvaluateBatch evaluates K (γ⃗, β⃗) parameter vectors through the
// ansatz's native batch path when available, sequentially otherwise.
func EvaluateBatch(a Ansatz, gammas, betas [][]float64, energies []float64) error {
	return backend.EvaluateBatch(a, gammas, betas, energies)
}

// Goemans-Williamson.
type (
	// GWOptions configures SolveGW.
	GWOptions = gw.Options
	// GWResult reports a GW run.
	GWResult = gw.Result
	// SDPOptions configures the underlying SDP solver.
	SDPOptions = sdp.Options
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
	// SubSolver is the pluggable per-sub-graph solver interface (the
	// solver plane's interface; see the registry exports below).
	SubSolver = solver.Solver
	// QAOASolver solves sub-graphs with simulated QAOA.
	QAOASolver = solver.QAOASolver
	// GWSolver solves sub-graphs classically with GW.
	GWSolver = solver.GWSolver
	// SDPGWSolver is GW with the SDP relaxation method pinned
	// (registry name "sdp-gw"; default the scalable mixing method).
	SDPGWSolver = solver.SDPGWSolver
	// RQAOASolver solves sub-graphs with recursive QAOA (registry
	// name "rqaoa").
	RQAOASolver = solver.RQAOASolver
	// BestOfSolver keeps the best cut among its inner solvers.
	BestOfSolver = solver.BestOfSolver
	// PortfolioSolver races its inner solvers concurrently under an
	// optional shared deadline and keeps the best finished cut
	// (registry name "portfolio").
	PortfolioSolver = solver.PortfolioSolver
	// MLAdaptiveSolver gates QAOA-vs-classical per sub-graph with the
	// mlselect feature classifier (registry name "ml-adaptive").
	MLAdaptiveSolver = solver.MLAdaptiveSolver
	// RandomSolver is the random-partition baseline solver.
	RandomSolver = solver.RandomSolver
	// AnnealSolver solves sub-graphs with simulated annealing.
	AnnealSolver = solver.AnnealSolver
	// ExactSolver brute-forces sub-graphs (tests, small merges).
	ExactSolver = solver.ExactSolver
	// OneExchangeSolver is the 1-swap local-search baseline solver.
	OneExchangeSolver = solver.OneExchangeSolver
)

// Solve runs the QAOA² divide-and-conquer MaxCut solver.
func Solve(g *Graph, opts Options) (*Result, error) { return qaoa2.Solve(g, opts) }

// SummarizeSubReports aggregates first-level sub-reports per solver
// for logs.
func SummarizeSubReports(reports []SubReport) string {
	return qaoa2.SummarizeSubReports(reports)
}

// Ising/QUBO workload plane (internal/ising; see DESIGN.md "The
// Ising/QUBO plane"). A general Ising Hamiltonian E(s) = Σ J_ij s_i s_j
// + Σ h_i s_i + c solves as its exact ancilla MaxCut reduction on N+1
// nodes, so every solver, backend and option of the MaxCut stack
// applies unchanged. First-class problem constructors (weighted MIS,
// vertex cover, number partitioning) keep the original instance data
// so results decode back to problem-level answers with feasibility
// verdicts.
type (
	// IsingHamiltonian is a minimization Ising Hamiltonian over ±1
	// spins: couplings J_ij, local fields h_i, constant offset.
	IsingHamiltonian = ising.Hamiltonian
	// IsingCoupling is one J_ij term.
	IsingCoupling = ising.Coupling
	// QUBO is the {0,1} quadratic form x^T Q x + c, exactly
	// interconvertible with IsingHamiltonian (ToIsing / ToQUBO).
	QUBO = ising.QUBO
	// Problem binds a Hamiltonian to the problem it encodes (kind,
	// instance data) so assignments decode with feasibility checks.
	Problem = ising.Problem
	// Assignment is a decoded problem-level solution.
	Assignment = ising.Assignment
	// IsingResult reports a SolveIsing / SolveProblem run.
	IsingResult = qaoa2.IsingResult
	// ProblemSpec is the wire form of an Ising/QUBO submission
	// (SolveRequest.Problem); the daemon normalizes it to the ancilla
	// MaxCut reduction and folds its canonical JSON into the job key.
	ProblemSpec = serve.ProblemSpec
	// CouplingSpec is one J_ij term of a raw-Ising ProblemSpec.
	CouplingSpec = serve.CouplingSpec
	// ProblemReport is the decoded problem-level answer attached to a
	// JobResult for problem submissions.
	ProblemReport = serve.ProblemReport
)

// Problem kinds (Problem.Kind / ProblemSpec.Kind; wire-stable).
const (
	KindIsing           = ising.KindIsing
	KindMaxCut          = ising.KindMaxCut
	KindMIS             = ising.KindMIS
	KindVertexCover     = ising.KindVertexCover
	KindNumberPartition = ising.KindNumberPartition
)

// MaxIsingExactSpins bounds GroundState / ExactSolver brute force.
const MaxIsingExactSpins = ising.MaxExactSpins

// NewIsing creates an empty Hamiltonian over n spins.
func NewIsing(n int) *IsingHamiltonian { return ising.New(n) }

// NewQUBO creates an empty QUBO over n binary variables.
func NewQUBO(n int) *QUBO { return ising.NewQUBO(n) }

// MaxCutProblem encodes MaxCut on g as the degenerate (field-free)
// Ising case: minimizing E recovers the maximum cut exactly.
func MaxCutProblem(g *Graph) (*Problem, error) { return ising.MaxCutProblem(g) }

// WeightedMIS encodes maximum-weight independent set with penalty-
// weighted conflict terms (penalty 0 picks a safe default).
func WeightedMIS(g *Graph, weights []float64, penalty float64) (*Problem, error) {
	return ising.WeightedMIS(g, weights, penalty)
}

// MinVertexCover encodes minimum vertex cover with penalty-weighted
// coverage constraints (penalty 0 picks a safe default).
func MinVertexCover(g *Graph, penalty float64) (*Problem, error) {
	return ising.MinVertexCover(g, penalty)
}

// NumberPartition encodes two-way number partitioning of nums; the
// decoded Objective is the imbalance |Σ s_i·a_i| (0 = perfect split).
func NumberPartition(nums []float64) (*Problem, error) { return ising.NumberPartition(nums) }

// ProblemFromHamiltonian wraps a raw Hamiltonian as a KindIsing
// problem (objective = energy, always feasible).
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

// Solver registry (internal/solver): the single place solvers are
// named and constructed. Every surface — this library's BuildSolver,
// the serve daemon's wire format, cmd/qaoa2 and cmd/workflow flags,
// hpc remote dispatch — resolves names through this one table, so a
// solver registered here is selectable everywhere at once.
type (
	// SolverSpec is the parameterized, JSON-serializable description
	// of a registry solver. BuildSolver turns it into the solver that
	// Options.Solver / MergeSolver take.
	SolverSpec = solver.Spec
	// SolverFactory builds a solver from its spec.
	SolverFactory = solver.Factory
	// SolverAttempt is one inner solver's try inside a composite
	// solve — the per-solver attribution and timing telemetry carried
	// by SubReport.Attempts, runtime events, and the serve NDJSON
	// stream.
	SolverAttempt = solver.Attempt
)

// BuildSolver constructs the solver a spec describes (a bare name is
// SolverSpec{Name: name}).
func BuildSolver(spec SolverSpec) (SubSolver, error) { return solver.Build(spec) }

// SolverNames lists every registered solver name, sorted.
func SolverNames() []string { return solver.Names() }

// SolverNamesHelp renders the registered names as an "a|b|c" usage
// string for CLI flag help.
func SolverNamesHelp() string { return solver.NamesHelp() }

// RegisterSolver adds a named solver factory to the registry; the new
// name becomes selectable from every surface (CLI flags, the serve
// daemon, remote dispatch). Duplicate names error.
func RegisterSolver(name string, f SolverFactory) error { return solver.Register(name, f) }

// RQAOA extension.
type (
	// RQAOAOptions configures SolveRQAOA.
	RQAOAOptions = rqaoa.Options
	// RQAOAResult reports an RQAOA run.
	RQAOAResult = rqaoa.Result
)

// SolveRQAOA runs recursive QAOA (correlation-based variable
// elimination).
func SolveRQAOA(g *Graph, opts RQAOAOptions, r *Rand) (*RQAOAResult, error) {
	return rqaoa.Solve(g, opts, r)
}

// Task-graph executor (what every Solve runs on; see DESIGN.md). It
// unfolds a QAOA² solve into an explicit DAG of partition, sub-solve,
// merge and stitch tasks run by a bounded worker pool, streams
// completed sub-reports (Options.OnRuntimeEvent), and checkpoints
// completed solves (Options.CheckpointPath) so interrupted runs resume.
type (
	// RuntimeEvent is one completed runtime task (streamed through
	// Options.OnRuntimeEvent).
	RuntimeEvent = runtime.Event
	// Checkpoint is the crash-tolerant on-disk store of completed
	// solves.
	Checkpoint = runtime.Checkpoint
	// CheckpointHeader identifies the run a Checkpoint belongs to.
	CheckpointHeader = runtime.Header
)

// ErrInterrupted is returned by Solve when Options.Interrupt fires
// before the task graph drains; completed tasks are already in the
// checkpoint, so a subsequent Solve resumes.
var ErrInterrupted = runtime.ErrInterrupted

// OpenCheckpoint opens (or resumes) the checkpoint at path. Most
// callers set Options.CheckpointPath instead and let Solve manage the
// store; open it directly to inspect restored entries or share one
// store across drivers.
func OpenCheckpoint(path string, h CheckpointHeader) (*Checkpoint, error) {
	return runtime.OpenCheckpoint(path, h)
}

// GraphFingerprint hashes a graph instance for CheckpointHeader.Graph.
func GraphFingerprint(g *Graph) string { return runtime.GraphFingerprint(g) }

// Solve service (the long-running multi-tenant daemon layer behind
// cmd/qaoa2d; see DESIGN.md). The server owns a bounded priority job
// queue with admission control over the task-graph runtime's worker
// budgets, a graph-fingerprint result cache that coalesces duplicate
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
	// EdgeSpec is one weighted edge of a GraphSpec.
	EdgeSpec = serve.EdgeSpec
	// ServeEvent is one streamed job-progress event.
	ServeEvent = serve.Event
	// JobStatus is the externally visible job snapshot.
	JobStatus = serve.JobStatus
	// JobResult is a completed solve in wire form.
	JobResult = serve.JobResult
	// JobState is the job lifecycle state.
	JobState = serve.JobState
)

// Job lifecycle states.
const (
	// JobQueued jobs wait for a worker-slot grant.
	JobQueued = serve.JobQueued
	// JobRunning jobs hold worker slots and are solving.
	JobRunning = serve.JobRunning
	// JobDone jobs completed; the result is cached.
	JobDone = serve.JobDone
	// JobFailed jobs errored; resubmission retries them.
	JobFailed = serve.JobFailed
)

// NewServeServer starts the solve service (restoring persisted jobs
// from cfg.StateDir when set).
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// GraphSpecOf converts a graph into its submission wire form.
func GraphSpecOf(g *Graph) GraphSpec { return serve.GraphSpecOf(g) }

// Multi-node solve fleet (see DESIGN.md "Fleet"). A coordinator
// routes submissions to qaoa2d workers on a consistent-hash ring
// keyed by result fingerprint, sweeps every worker's result cache
// before solving, health-checks workers through circuit breakers, and
// re-parks jobs off dead or draining workers — safe at any point
// because the runtime recomputes bit-identically from any checkpoint
// prefix. The front door (FleetCoordinator.Handler, or qaoa2d -front)
// speaks the exact qaoa2d wire surface, so ServeClient and
// RemoteSolver target it by URL alone.
type (
	// FleetConfig configures NewFleetCoordinator.
	FleetConfig = fleet.Config
	// FleetCoordinator is the routing front door over the workers.
	FleetCoordinator = fleet.Coordinator
	// FleetWorkerSpec names one worker and its base URL.
	FleetWorkerSpec = fleet.WorkerSpec
	// FleetWorkerStatus is one worker's health snapshot.
	FleetWorkerStatus = fleet.WorkerStatus
	// FleetWorkerState is a worker's health state.
	FleetWorkerState = fleet.WorkerState
	// FleetStats counts routing decisions, cache hits, failovers and
	// checkpoint re-parks.
	FleetStats = fleet.Stats
)

// Fleet worker health states.
const (
	// FleetWorkerHealthy workers accept routed jobs.
	FleetWorkerHealthy = fleet.WorkerHealthy
	// FleetWorkerDraining workers finish parked state but take no new
	// jobs; their checkpoints are salvageable over HTTP.
	FleetWorkerDraining = fleet.WorkerDraining
	// FleetWorkerDead workers answer nothing; their jobs re-route.
	FleetWorkerDead = fleet.WorkerDead
)

// NewFleetCoordinator starts a fleet coordinator (health loop
// included) over the configured workers.
func NewFleetCoordinator(cfg FleetConfig) (*FleetCoordinator, error) { return fleet.New(cfg) }

// Fault-tolerant dispatch (retry/backoff/breaker under deterministic
// fault injection; see DESIGN.md "Fault tolerance"). RetryPolicy
// drives ServeClient and RemoteSolver resubmission with deterministic
// jitter; a shared Breaker makes whole fleets of leaves fail fast
// once a daemon is down; FaultInjector is the seeded chaos harness
// the soak tests (and EXPERIMENTS.md recipes) replay by seed.
type (
	// RetryPolicy shapes capped-exponential-backoff retries.
	RetryPolicy = retry.Policy
	// RetryClass labels an error Retryable or Terminal.
	RetryClass = retry.Class
	// Breaker is a per-endpoint circuit breaker.
	Breaker = retry.Breaker
	// BreakerState is the breaker lifecycle state.
	BreakerState = retry.BreakerState
	// StatusError is a typed HTTP rejection carrying Retry-After.
	StatusError = retry.StatusError
	// FaultInjector draws deterministic fault schedules for chaos runs.
	FaultInjector = faults.Injector
	// FaultSite configures one injection point's knobs.
	FaultSite = faults.Site
	// FaultDecision is one request's injected verdict.
	FaultDecision = faults.Decision
	// FaultClass names one injectable failure mode.
	FaultClass = faults.Class
)

// Error classes and breaker states.
const (
	// Retryable errors are worth another attempt (refused/reset
	// connections, 5xx, 429, torn streams).
	Retryable = retry.Retryable
	// Terminal errors retry cannot fix (4xx, cancellation).
	Terminal = retry.Terminal
	// BreakerClosed passes requests and counts failures.
	BreakerClosed = retry.BreakerClosed
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen = retry.BreakerOpen
	// BreakerHalfOpen admits one probe to test recovery.
	BreakerHalfOpen = retry.BreakerHalfOpen
)

// Fault-tolerance sentinels: a retry budget spent without success, a
// breaker refusing fast, a job stream cut before its status line.
var (
	ErrRetryExhausted    = retry.ErrExhausted
	ErrBreakerOpen       = retry.ErrOpen
	ErrStreamInterrupted = serve.ErrStreamInterrupted
)

// DefaultRetryPolicy is the dispatch-layer retry default (4 attempts,
// 50ms–2s backoff with jitter deterministic in seed).
func DefaultRetryPolicy(seed uint64) RetryPolicy { return retry.Default(seed) }

// ClassifyError reports whether err is worth retrying.
func ClassifyError(err error) RetryClass { return retry.Classify(err) }

// NewFaultInjector returns a seeded chaos injector; configure sites,
// then wrap transports/handlers with its Transport/Middleware.
func NewFaultInjector(seed uint64) *FaultInjector { return faults.New(seed) }

// HPC workflow front end.
type (
	// RemoteSolver dispatches sub-graph solves to a qaoa2d daemon.
	RemoteSolver = hpc.RemoteSolver
)

// DensityPolicy routes sparse sub-graphs to the quantum solver and
// dense ones to the classical solver, the naive rule the paper's grid
// search motivates. Solve with it runs the paper's Fig. 2 workflow:
// Options.Parallelism is the worker count, and each SubReport names
// the member a sub-graph was routed to.
func DensityPolicy(threshold float64, quantum, classical SubSolver) SubSolver {
	return hpc.DensityPolicy(threshold, quantum, classical)
}

// NISQ noise (trajectory-sampled Pauli errors).
type (
	// NoiseModel is the per-gate stochastic Pauli error model.
	NoiseModel = qsim.NoiseModel
)

// NoisyExpectation estimates ⟨H_C⟩ of a bound ansatz under noise,
// averaged over quantum trajectories.
func NoisyExpectation(g *Graph, gammas, betas []float64, model NoiseModel,
	trajectories int, prefs SynthPreferences, r *Rand) (float64, error) {
	return qaoa.NoisyExpectation(g, gammas, betas, model, trajectories, prefs, r)
}

// Learned warm starts (the "iterative-free QAOA" outlook).
type (
	// ParamPredictor regresses initial (γ⃗, β⃗) from graph features.
	ParamPredictor = paraminit.Predictor
	// ParamExample is one (features, optimized parameters) pair.
	ParamExample = paraminit.Example
	// ParamConfig configures TrainParamPredictor.
	ParamConfig = paraminit.Config
)

// BuildParamDataset runs QAOA over the graphs and collects training
// pairs for the warm-start predictor.
func BuildParamDataset(graphs []*Graph, opts QAOAOptions, seed uint64) ([]ParamExample, error) {
	return paraminit.BuildDataset(graphs, opts, seed)
}

// TrainParamPredictor fits the warm-start MLP on collected examples.
func TrainParamPredictor(examples []ParamExample, cfg ParamConfig) (*ParamPredictor, error) {
	return paraminit.Train(examples, cfg)
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
