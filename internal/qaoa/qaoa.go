// Package qaoa implements the Quantum Approximate Optimization Algorithm
// for MaxCut (paper §3.2): a p-layer ansatz |ψ_p(β⃗,γ⃗)⟩ =
// Π_l e^{-iβ_l H_M} e^{-iγ_l H_C} |+⟩^⊗n executed through the pluggable
// internal/backend layer — by default the fused diagonal-cost backend;
// optionally the synth→qsim gate walk or the noisy-trajectory backend —
// and trained by the COBYLA optimizer of internal/opt. The objective
// F_p = ⟨ψ|H_C|ψ⟩ is maximized; the solution bit string is decoded from
// the highest amplitude of the final statevector (optionally the best
// cut among the top-K amplitudes, the improvement the paper suggests in
// §3.2/§5). Solve spends the optimizer's whole budget; SolveCut, the
// entry point of QAOA² leaves, stops as soon as the decoded cut is
// certified optimal. An Ising Hamiltonian reaches this package only as
// its ancilla MaxCut reduction (internal/qaoa2.SolveIsing), so every
// ansatz here is a graph's and every decoded value is a cut.
package qaoa

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/opt"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/synth"
)

// DefaultShots is the paper's circuit sampling budget (§3.2).
const DefaultShots = 4096

// Options configures Solve.
type Options struct {
	// Layers is the ansatz depth p (default 3).
	Layers int
	// MaxIters bounds objective evaluations, the paper's "number of
	// iterations ... linearly dependent on p" (default IterationsFor).
	MaxIters int
	// Rhobeg is COBYLA's initial trust radius, the second grid-search
	// axis of Fig. 3 (default 0.5, the paper's best value).
	Rhobeg float64
	// Shots selects the objective estimator: 0 evaluates the exact
	// statevector expectation; positive values estimate F_p from that
	// many measurement samples (the paper uses 4096).
	Shots int
	// TopK decodes the solution as the best cut among the K largest
	// amplitudes; 1 reproduces the paper's single-best-amplitude rule.
	TopK int
	// DecodeShots switches decoding from the exact statevector argmax
	// (0, the paper's simulator-side rule) to the most frequent outcome
	// of that many measurement samples — what a physical device would
	// deliver. At small qubit counts exact-argmax decoding almost always
	// finds the optimum, flattening grid-search comparisons; sampled
	// decoding restores the paper's scale behaviour (see DESIGN.md).
	DecodeShots int
	// Restarts runs this many independent optimizer starts — start 0
	// from the standard initialization, the rest from deterministic
	// perturbations of it — and keeps the start whose final parameters
	// have the best exact expectation (default 1). The restarts run one
	// after another on the one prepared ansatz, each with the full
	// MaxIters budget and, under Shots > 0, its own sampling stream, so
	// multi-start costs Restarts× the evaluations; one batched
	// evaluation (backend.EvaluateBatch) ranks their final parameters.
	Restarts int
	// Synthesis forwards preferences to the circuit synthesis engine.
	// Only synthesizing backends (dense, noisy) honor it; setting any
	// preference switches the default backend from fused to dense.
	Synthesis synth.Preferences
	// Backend selects the circuit-execution backend. Nil applies the
	// backend.Default rule: the fused diagonal-cost backend, or the
	// dense gate walk when Synthesis preferences are set (see DESIGN.md).
	Backend backend.Backend
	// Seed derives all stochastic streams (shot sampling).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Layers <= 0 {
		o.Layers = 3
	}
	if o.MaxIters <= 0 {
		o.MaxIters = IterationsFor(o.Layers)
	}
	if o.Rhobeg <= 0 {
		o.Rhobeg = 0.5
	}
	if o.TopK <= 0 {
		o.TopK = 1
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	return o
}

// IterationsFor maps the layer count to the paper's iteration budget:
// linear in p, ranging from 30 (p=3) to 100 (p=8), clamped outside.
func IterationsFor(layers int) int {
	it := 30 + (100-30)*(layers-3)/5
	if it < 30 {
		return 30
	}
	if it > 100 {
		return 100
	}
	return it
}

// Result reports one QAOA run.
type Result struct {
	Cut         maxcut.Cut // decoded solution
	Expectation float64    // exact ⟨H_C⟩ at the best parameters
	Gammas      []float64  // optimized cost parameters
	Betas       []float64  // optimized mixer parameters
	Evaluations int        // objective evaluations consumed
	// Report carries synthesis metrics of the ansatz; it is the zero
	// Report under backends that skip gate-level synthesis (fused).
	Report synth.Report
	// State is the final statevector at the optimized parameters;
	// consumers such as RQAOA read correlations from it. Under the
	// default fused backend it is a Z2-reduced state (Z2Full() != 0)
	// whose measurement accessors report full-space results; call
	// ExpandZ2 for raw full-vector amplitude access.
	State *qsim.State
	// Layout maps logical node → physical wire of State (nil when
	// identity, i.e. no routing was requested).
	Layout []int
	// Optimal certifies Cut as a maximum cut of the graph: its value
	// equals the maximum of the cut table the ansatz holds. The
	// certificate is exact arithmetic, not a tolerance — it is issued
	// only when graph.IntegralWeights holds, so a graph with real
	// weights never gets one, whatever its cut.
	Optimal bool

	ans backend.Ansatz // the ansatz State belongs to, until Release
}

// Release hands the ansatz's buffers — the fused backend's engines and
// level index — back to their pools (backend.Release) and sets State to
// nil. A caller that needs only the cut releases as soon as it has
// read it, so the next sub-solve of the same size reuses the
// statevector; the former State is empty afterwards. A second call
// does nothing.
func (r *Result) Release() {
	if r.ans != nil {
		backend.Release(r.ans)
		r.ans = nil
	}
	r.State = nil
}

func physOf(layout []int, q int) int {
	if layout == nil {
		return q
	}
	return layout[q]
}

// Solve runs QAOA on g for the optimizer's whole budget and decodes the
// state at the best parameters found. The graph must fit the simulator
// (g.N() ≤ qsim.MaxQubits). Callers that read more than the cut — the
// trained angles (the noise ablation), the final state's correlations
// (rqaoa), the expectation (Fig. 3, Table 1) — use Solve.
func Solve(g *graph.Graph, opts Options, r *rng.Rand) (*Result, error) {
	return solve(g, opts, r, false)
}

// SolveCut runs QAOA on g for its cut: like Solve, but it stops the
// optimizer at the first evaluation whose state decodes — by decode's
// rule — to a cut equal to the cut table's maximum, and returns that
// evaluation's angles, expectation and state with Optimal set. The stop
// rule is exact arithmetic on the table, so it is only applied where
// the certificate is (graph.IntegralWeights, DecodeShots == 0) and to a
// single start (Restarts ≤ 1); any other graph or option set returns
// exactly what Solve returns.
func SolveCut(g *graph.Graph, opts Options, r *rng.Rand) (*Result, error) {
	return solve(g, opts, r, true)
}

func solve(g *graph.Graph, opts Options, r *rng.Rand, stopAtCertificate bool) (*Result, error) {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 {
		return &Result{Cut: maxcut.Cut{Spins: []int8{}, Value: 0}, Optimal: true}, nil
	}
	if n > qsim.MaxQubits {
		return nil, fmt.Errorf("qaoa: %d nodes exceeds simulator capacity of %d qubits", n, qsim.MaxQubits)
	}
	if g.M() == 0 {
		// No edges: every assignment cuts 0; skip the quantum pipeline.
		spins := make([]int8, n)
		for i := range spins {
			spins[i] = 1
		}
		return &Result{Cut: maxcut.Cut{Spins: spins, Value: 0}, Optimal: true}, nil
	}

	be, cfg := opts.backend()
	ans, err := be.Prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	// The certificate exists where exact arithmetic lets a cut equal the
	// table's maximum (backend.TableMax): under graph.IntegralWeights both
	// are integers computed exactly. SolveCut also stops on it when
	// decoding is exact.
	certified := g.IntegralWeights()
	var tableMax float64
	var stopAt *float64
	if certified {
		tableMax = backend.TableMax(ans)
		if stopAtCertificate && opts.DecodeShots == 0 {
			stopAt = &tableMax
		}
	}
	res, err := run(ans, g, stopAt, opts, r)
	if err != nil {
		return nil, err
	}
	res.Optimal = certified && res.Cut.Value == tableMax
	return res, nil
}

// backend resolves the execution backend (nil applies backend.Default)
// and the configuration every entry point prepares its ansatz with.
func (o Options) backend() (backend.Backend, backend.Config) {
	be := o.Backend
	if be == nil {
		be = backend.Default(o.Synthesis)
	}
	return be, backend.Config{Layers: o.Layers, Synthesis: o.Synthesis, Seed: o.Seed}
}

// run is the QAOA variational loop Solve and SolveCut share. It trains
// the ansatz prepared for g (one start, or opts.Restarts starts in
// turn), re-evaluates the best parameters and decodes the final state
// into the bit string of highest cut. With stopAt, a single start stops
// at the first evaluation whose decoded cut equals *stopAt and reports
// that evaluation. Result.Optimal is left to the caller.
func run(ans backend.Ansatz, g *graph.Graph, stopAt *float64, opts Options, r *rng.Rand) (*Result, error) {
	dec := decoder{g: g, layout: ans.Layout(), topK: opts.TopK}
	// Only the sampled objective reads the diagonal; an exactly scored
	// leaf never asks the backend to materialise it.
	var table []float64
	if opts.Shots > 0 {
		table = ans.Diagonal()
	}

	shotRand := r
	if shotRand == nil {
		shotRand = rng.New(opts.Seed ^ 0xa0a0a0a0)
	}

	p := opts.Layers
	initGammas, initBetas := InitialParameters(p)
	x0 := slices.Concat(initGammas, initBetas)

	var res opt.Result
	var hit *point
	var err error
	if opts.Restarts > 1 {
		// Multi-start runs its whole budget: SolveCut stops single starts
		// only.
		res, err = multiStart(ans, opts, x0, shotRand, table)
		if err != nil {
			return nil, err
		}
	} else {
		res, hit = runOptimizer(ans, opts, x0, shotRand, table, dec, stopAt)
	}

	gammas := make([]float64, p)
	betas := make([]float64, p)
	var expectation float64
	var s *qsim.State
	var cut maxcut.Cut
	if hit != nil {
		// A certified evaluation already holds everything to report, its
		// decoded cut included.
		copy(gammas, hit.x[:p])
		copy(betas, hit.x[p:])
		expectation, s, cut = hit.energy, hit.state, hit.cut
	} else {
		// Re-run at the best parameters for decoding and exact expectation.
		copy(gammas, res.X[:p])
		copy(betas, res.X[p:])
		expectation, s, err = ans.Evaluate(gammas, betas)
		if err != nil {
			return nil, err
		}
		if opts.DecodeShots > 0 {
			cut = dec.sampled(s, opts.DecodeShots, shotRand)
		} else {
			cut = dec.exact(s)
		}
	}
	return &Result{
		Cut:         cut,
		Expectation: expectation,
		Gammas:      gammas,
		Betas:       betas,
		Evaluations: res.Evals,
		Report:      ans.Report(),
		State:       s,
		Layout:      dec.layout,
		ans:         ans,
	}, nil
}

// point is a certified evaluation: its parameters, exact energy, final
// state and decoded cut.
type point struct {
	x      []float64
	energy float64
	state  *qsim.State
	cut    maxcut.Cut
}

// sampledEnergy estimates ⟨H_C⟩ from a finite-shot histogram of s. It
// sums in ascending basis order: map order would make the rounding of
// real-weighted tables differ from call to call.
func sampledEnergy(s *qsim.State, table []float64, shots int, r *rng.Rand) float64 {
	hist := s.Sample(shots, r)
	total := 0.0
	for _, basis := range slices.Sorted(maps.Keys(hist)) {
		total += table[basis] * float64(hist[basis])
	}
	return total / float64(shots)
}

// runOptimizer performs a single optimizer run from x0; objective
// evaluations go straight through the ansatz (with optional shot
// sampling from shotRand). With stopAt it decodes every evaluated state
// and stops at the first whose decoded value equals *stopAt, returning
// that evaluation.
func runOptimizer(ans backend.Ansatz, opts Options, x0 []float64, shotRand *rng.Rand, table []float64, dec decoder, stopAt *float64) (opt.Result, *point) {
	p := opts.Layers
	var hit *point
	objective := func(x []float64) float64 {
		energy, s, err := ans.Evaluate(x[:p], x[p:])
		if err != nil {
			panic(err) // parameter lengths are fixed by construction
		}
		if stopAt != nil {
			if cut := dec.exact(s); cut.Value == *stopAt {
				// The optimizer stops after this call, so s stays valid.
				hit = &point{x: slices.Clone(x), energy: energy, state: s, cut: cut}
			}
		}
		f := energy
		if opts.Shots > 0 {
			f = sampledEnergy(s, table, opts.Shots, shotRand)
		}
		return -f // COBYLA minimizes
	}
	var stop func() bool
	if stopAt != nil {
		stop = func() bool { return hit != nil }
	}
	res := opt.MinimizeCOBYLA(objective, x0, opt.COBYLAOptions{
		Rhobeg: opts.Rhobeg, MaxEvals: opts.MaxIters, Stop: stop,
	})
	return res, hit
}

// multiStart runs opts.Restarts optimizer starts in turn through
// runOptimizer over ONE shared prepared ansatz, each for its whole
// budget. Start 0 is x0; the rest perturb it on the deterministic
// "Restart" stream, and restart k samples from its own split of
// shotRand. The restarts are ranked by the EXACT expectation at their
// final parameters — one backend.EvaluateBatch call — so shot noise
// cannot pick the winner; the winner is reported with the summed
// evaluation cost.
func multiStart(ans backend.Ansatz, opts Options, x0 []float64, shotRand *rng.Rand, table []float64) (opt.Result, error) {
	restarts := opts.Restarts
	p := opts.Layers
	pr := rng.New(opts.Seed ^ 0x52657374617274) // "Restart"
	results := make([]opt.Result, restarts)
	gammas := make([][]float64, restarts)
	betas := make([][]float64, restarts)
	evals := 0
	for k := range results {
		xk := x0
		if k > 0 {
			// A poor man's basin hopping.
			xk = make([]float64, len(x0))
			for j := range xk {
				xk[j] = x0[j] + (pr.Float64()-0.5)*0.8
			}
		}
		results[k], _ = runOptimizer(ans, opts, xk, shotRand.Split(uint64(k)+0x517), table, decoder{}, nil)
		gammas[k], betas[k] = results[k].X[:p], results[k].X[p:]
		evals += results[k].Evals
	}
	energies := make([]float64, restarts)
	if err := backend.EvaluateBatch(ans, gammas, betas, energies); err != nil {
		return opt.Result{}, err
	}
	best := 0
	for k, e := range energies {
		if e > energies[best] {
			best = k
		}
	}
	res := results[best]
	res.Evals = evals
	return res, nil
}

// ZZCorrelation computes ⟨Z_i Z_j⟩ for logical nodes i, j from a final
// state, honoring an optional routing layout. RQAOA ranks edges by the
// magnitude of this correlation.
//
// The loop works unchanged on a Z2-reduced state: Z_i Z_j parity is
// invariant under global spin flip, so every stored representative
// carries its pair's combined (doubled) probability at the correct
// sign — including qubit Z2Full()−1, whose bit is zero on every
// representative by construction.
func ZZCorrelation(s *qsim.State, layout []int, i, j int) float64 {
	bi := uint64(1) << uint(physOf(layout, i))
	bj := uint64(1) << uint(physOf(layout, j))
	corr := 0.0
	for x := 0; x < s.Len(); x++ {
		u := uint64(x)
		p := s.Probability(u)
		if (u&bi != 0) == (u&bj != 0) {
			corr += p
		} else {
			corr -= p
		}
	}
	return corr
}

// decoder reads the solution bit string off a state: of the candidate
// basis states it keeps the one of highest cut, scored exactly by
// g.CutValueBits.
type decoder struct {
	g      *graph.Graph
	layout []int // logical node → physical wire (nil: identity)
	topK   int
}

// exact decodes from the statevector: the best cut among the top-K
// probability basis states (K=1 is the paper's rule), widened to their
// tie set so that every kernel tier decodes the same bit string (see
// qsim.State.DecodeCandidates). The buffer keeps the usual handful of
// candidates on the stack.
func (d decoder) exact(s *qsim.State) maxcut.Cut {
	var buf [8]uint64
	return d.best(s.DecodeCandidates(d.topK, buf[:0]))
}

// sampled decodes from a finite-shot histogram: the best of the K most
// frequent outcomes (ties: higher count, then lower basis index, for
// determinism).
func (d decoder) sampled(s *qsim.State, shots int, r *rng.Rand) maxcut.Cut {
	hist := s.Sample(shots, r)
	type entry struct {
		idx   uint64
		count int
	}
	entries := make([]entry, 0, len(hist))
	for idx, c := range hist {
		entries = append(entries, entry{idx, c})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].count != entries[b].count {
			return entries[a].count > entries[b].count
		}
		return entries[a].idx < entries[b].idx
	})
	topK := min(d.topK, len(entries))
	indices := make([]uint64, topK)
	for i := 0; i < topK; i++ {
		indices[i] = entries[i].idx
	}
	return d.best(indices)
}

// best scores candidate basis states and keeps the highest cut; equal
// cuts go to the lowest index.
func (d decoder) best(indices []uint64) maxcut.Cut {
	best := maxcut.Cut{Value: math.Inf(-1)}
	var bestIdx uint64
	for _, idx := range indices {
		bits := make([]uint8, d.g.N())
		for q := range bits {
			bits[q] = uint8(idx >> uint(physOf(d.layout, q)) & 1)
		}
		if v := d.g.CutValueBits(bits); v > best.Value || v == best.Value && idx < bestIdx {
			best, bestIdx = maxcut.Cut{Spins: graph.SpinsFromBits(bits), Value: v}, idx
		}
	}
	return best
}

// InitialParameters returns the standard linear-ramp initialization:
// γ grows and β shrinks across layers, mimicking an annealing schedule
// (the discretized-adiabatic reading of QAOA in §3.2).
func InitialParameters(p int) (gammas, betas []float64) {
	gammas = make([]float64, p)
	betas = make([]float64, p)
	for l := 0; l < p; l++ {
		frac := (float64(l) + 0.5) / float64(p)
		gammas[l] = 0.7 * frac
		betas[l] = 0.7 * (1 - frac)
	}
	return gammas, betas
}
