// Package backend defines the pluggable circuit-execution layer of the
// simulator: the paper's hybrid workflow treats the quantum device as an
// interchangeable resource, and this package is the software analogue —
// every consumer (internal/qaoa's variational loop, and through it the
// QAOA² sub-graph solvers) executes its ansatz through the Backend
// interface instead of a hard-wired synth→qsim gate walk.
//
// Two implementations ship:
//
//   - Dense: the reference oracle — synthesizes a gate-level circuit via
//     internal/synth and walks it gate by gate through internal/qsim,
//     honoring synthesis preferences (basis, routing, objective).
//
//   - Fused: the fast path for noiseless simulation — exploits that the
//     MaxCut cost Hamiltonian is diagonal (Lin et al., arXiv:2312.03019),
//     precomputing its diagonal once per sub-graph and applying each
//     γ-layer as a single element-wise phase pass, eliminating per-gate
//     dispatch and circuit synthesis from the optimizer's inner loop. By
//     default it additionally folds out the Z2 spin-flip symmetry,
//     simulating the 2^(n−1) even-sector amplitudes only ("fused-full"
//     names the unreduced variant).
//
// Future backends (sparse statevector, GPU, remote device) slot in
// behind the same interface.
package backend

import (
	"fmt"
	"slices"
	"strings"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// Config carries the ansatz parameters a Backend needs at Prepare time.
type Config struct {
	// Layers is the QAOA depth p (must be ≥ 1).
	Layers int
	// Synthesis forwards circuit-synthesis preferences; only Dense,
	// which synthesizes a gate-level circuit, honors it.
	Synthesis synth.Preferences
}

// Ansatz is a prepared, executable QAOA ansatz for one graph. An Ansatz
// is bound to the graph and depth it was prepared with; only the
// variational parameters change between evaluations. Implementations
// need not be safe for concurrent use — the QAOA² layer prepares one
// Ansatz per worker.
type Ansatz interface {
	// Evaluate binds (γ⃗, β⃗), executes the ansatz, and returns the exact
	// energy ⟨ψ|H_C|ψ⟩ together with the final statevector. The returned
	// state may be a reused internal buffer: it is valid until the next
	// Evaluate call on the same Ansatz; Clone it to keep it longer.
	Evaluate(gammas, betas []float64) (float64, *qsim.State, error)
	// Diagonal returns the H_C diagonal in the computational basis of
	// the returned states (physical wire order): Diagonal()[x] is the
	// cut value of bit string x.
	Diagonal() []float64
	// Layout maps logical node → physical wire of the returned states;
	// nil means identity (no routing happened).
	Layout() []int
	// Report returns synthesis metrics; backends that skip gate-level
	// synthesis return the zero Report.
	Report() synth.Report
}

// BatchEvaluator is the optional batched extension of Ansatz: ranking
// parameter vectors, such as the final points of a multi-start run
// (internal/qaoa), goes through it. Like Evaluate, EvaluateBatch is not
// safe for concurrent use on the same Ansatz, and it overwrites the
// state an earlier Evaluate returned.
type BatchEvaluator interface {
	// EvaluateBatch computes energies[k] = ⟨ψ(γ⃗_k, β⃗_k)|H_C|ψ(γ⃗_k, β⃗_k)⟩
	// for every k. It does not return states: batched callers only rank
	// parameter vectors; re-Evaluate the winner when its state is
	// needed.
	EvaluateBatch(gammas, betas [][]float64, energies []float64) error
}

// EvaluateBatch evaluates K (γ⃗, β⃗) parameter vectors through a's native
// batch path when it implements BatchEvaluator, and by evaluateEach
// otherwise.
func EvaluateBatch(a Ansatz, gammas, betas [][]float64, energies []float64) error {
	if be, ok := a.(BatchEvaluator); ok {
		return be.EvaluateBatch(gammas, betas, energies)
	}
	return evaluateEach(a, gammas, betas, energies)
}

// evaluateEach evaluates the K parameter vectors one after another
// through a.Evaluate, which checks each vector's length.
func evaluateEach(a Ansatz, gammas, betas [][]float64, energies []float64) error {
	if len(betas) != len(gammas) || len(energies) != len(gammas) {
		return fmt.Errorf("backend: batch of %d gamma vectors with %d beta vectors and %d energy slots",
			len(gammas), len(betas), len(energies))
	}
	for k := range gammas {
		e, _, err := a.Evaluate(gammas[k], betas[k])
		if err != nil {
			return err
		}
		energies[k] = e
	}
	return nil
}

// TableMaxer is the optional extension of Ansatz for backends that know
// the largest entry of their Diagonal without scanning it — for a
// MaxCut ansatz the graph's maximum cut, which certifies a decoded cut
// optimal (internal/qaoa).
type TableMaxer interface {
	// TableMax returns the largest entry of Diagonal().
	TableMax() float64
}

// TableMax returns the largest entry of a MaxCut ansatz's diagonal:
// through a's own TableMax when it implements TableMaxer, else by a
// scan of the lower half of Diagonal() — a bit string and its
// complement cut the same edges, and the complement of a lower-half
// index lies in the upper half, so the lower half holds every value.
func TableMax(a Ansatz) float64 {
	if tm, ok := a.(TableMaxer); ok {
		return tm.TableMax()
	}
	table := a.Diagonal()
	return slices.Max(table[:len(table)/2])
}

// Releaser is the optional extension of Ansatz for backends that pool
// their buffers: Fused hands its engines and level index back for the
// next Prepare of the same shape. After Release every state the ansatz
// returned is empty (Len() == 0) and the ansatz must not be used again.
type Releaser interface {
	// Release returns the ansatz's buffers; a second call does nothing.
	Release()
}

// Release hands a's buffers back when it implements Releaser; Dense
// pools nothing, so for it Release does nothing.
func Release(a Ansatz) {
	if r, ok := a.(Releaser); ok {
		r.Release()
	}
}

// Backend prepares executable ansätze. Implementations must be safe for
// concurrent Prepare calls: QAOA² prepares sub-graph ansätze in
// parallel.
type Backend interface {
	// Name labels the backend in reports and CLI flags.
	Name() string
	// Prepare compiles the ansatz for g at the configured depth.
	Prepare(g *graph.Graph, cfg Config) (Ansatz, error)
}

// Default returns the backend used when options leave the choice open:
// Fused for plain simulation, Dense when synthesis preferences are set —
// the fused path bypasses circuit synthesis entirely, so explicitly
// requested preferences (basis, routing, objective) imply the gate-walk
// backend and its Report/Layout semantics.
func Default(prefs synth.Preferences) Backend {
	if prefs != (synth.Preferences{}) {
		return Dense{}
	}
	return Fused{}
}

// names lists the backends ByName resolves, in the order NamesHelp
// prints them. "fused" and its explicit alias "fused-z2" run the
// symmetry-reduced fast path; "fused-full" is the unreduced engine,
// kept addressable for A/B benchmarking against the reduction.
var names = []struct {
	name string
	be   Backend
}{
	{"fused", Fused{}},
	{"fused-z2", Fused{}},
	{"fused-full", Fused{Full: true}},
	{"dense", Dense{}},
}

// ByName resolves a CLI backend name, one of NamesHelp's. The empty
// string selects the Default rule at solve time (represented as a nil
// Backend).
func ByName(name string) (Backend, error) {
	if name == "" {
		return nil, nil
	}
	for _, n := range names {
		if n.name == name {
			return n.be, nil
		}
	}
	return nil, fmt.Errorf("backend: unknown backend %q (want %s)", name, NamesHelp())
}

// NamesHelp renders the names ByName resolves as an "a|b|c" usage
// string for CLI flag help and errors.
func NamesHelp() string {
	s := make([]string, len(names))
	for i, n := range names {
		s[i] = n.name
	}
	return strings.Join(s, "|")
}

// CutTable returns the diagonal of H_C in the computational basis:
// table[x] = cut value of bit string x, with bit q of x assigning node q
// (0 → +1 side, 1 → −1 side). layout must map logical node to physical
// wire (identity when nil).
//
// The table is built by doubling, in O(2^n) additions instead of one
// branch per (edge, bit string): raising wire b on a string x < 2^b
// (all higher wires still 0) moves its node across the cut, which gains
// every incident edge whose other end sits on the 0 side and loses the
// rest —
//
//	table[2^b + x] = table[x] + δ_b[x]
//	δ_b[x] = deg_w(node_b) − 2·Σ_{wires j < b set in x} w(b, j)
//
// and δ_b obeys the same kind of recurrence, δ_b[2^j + y] = δ_b[y] −
// 2·w(b, j), so it is built in place in table[2^b : 2^(b+1)] before
// table[:2^b] is added onto it. Integer-weighted graphs (every QAOA²
// leaf of an unweighted instance) give exact tables either way.
func CutTable(g *graph.Graph, layout []int) []float64 {
	table := make([]float64, 1<<uint(g.N()))
	doubleCuts(g, layout, table)
	return table
}

// doubleCuts runs CutTable's recurrence over the first log2(len(table))
// wires, from table[0] (the all-zero string's entry) up. Entries hold
// cut values offset by table[0]: CutTable starts from 0, the integral
// build (cutLevels) from a level offset in int32. Its two per-wire
// arrays live on the stack: a table of 2^n entries has n ≤
// qsim.MaxQubits. Each wire's pass is a call of its own (addWire):
// written inline beside the stack arrays, its inner loop spilled its
// counter on every entry, a 20-qubit Prepare ≈ 30 % slower.
func doubleCuts[T int32 | float64](g *graph.Graph, layout []int, table []T) {
	n := g.N()
	var nodes [qsim.MaxQubits]int
	node := nodes[:n] // inverse wire map: the node on each wire
	for q := range node {
		node[physOf(layout, q)] = q
	}
	var low [qsim.MaxQubits]T
	for b := 0; 2<<uint(b) <= len(table); b++ {
		addWire(g, layout, node[b], low[:b], table[:2<<uint(b)])
	}
}

// addWire runs one wire's pass of doubleCuts: table's lower half is
// done, and the upper half gets the entries with the wire set. The
// wire carries node v, and low (one entry per wire below) is scratch
// for low[j] = w(v, j). The pass is two branch-free streams the
// compiler can prove in bounds: δ built by doubling, then the entries
// below added onto it.
func addWire[T int32 | float64](g *graph.Graph, layout []int, v int, low, table []T) {
	var deg T
	clear(low)
	for _, h := range g.Neighbors(v) {
		w := T(h.W)
		deg += w
		if j := physOf(layout, h.To); j < len(low) {
			low[j] += w
		}
	}
	below := table[:len(table)/2]
	delta := table[len(below):][:len(below)]
	delta[0] = deg
	for j, w := range low {
		w2 := 2 * w
		lower := delta[:1<<uint(j)]
		upper := delta[len(lower):][:len(lower)]
		for y, v := range lower {
			upper[y] = v - w2
		}
	}
	for x, v := range below {
		delta[x] += v
	}
}

// physOf maps logical node q to its physical wire under layout.
func physOf(layout []int, q int) int {
	if layout == nil {
		return q
	}
	return layout[q]
}

// checkGraph validates Prepare's preconditions: a graph of
// 1..qsim.MaxQubits nodes and at least one layer.
func checkGraph(g *graph.Graph, cfg Config) error {
	if g == nil {
		return fmt.Errorf("backend: nil graph")
	}
	if g.N() < 1 {
		return fmt.Errorf("backend: graph must have at least one node")
	}
	if g.N() > qsim.MaxQubits {
		return fmt.Errorf("backend: %d nodes exceeds simulator capacity of %d qubits", g.N(), qsim.MaxQubits)
	}
	if cfg.Layers < 1 {
		return fmt.Errorf("backend: need at least one QAOA layer, got %d", cfg.Layers)
	}
	return nil
}

// checkParams validates Evaluate's parameter vectors.
func checkParams(layers int, gammas, betas []float64) error {
	if len(gammas) != layers || len(betas) != layers {
		return fmt.Errorf("backend: need %d gammas and betas, got %d and %d",
			layers, len(gammas), len(betas))
	}
	return nil
}

// identityOrNil collapses an identity layout to nil, the convention the
// decoding helpers use to skip permutation arithmetic.
func identityOrNil(layout []int) []int {
	for q, p := range layout {
		if q != p {
			return layout
		}
	}
	return nil
}
