// Package circuit provides the gate-level intermediate representation
// between the synthesis engine (internal/synth, the Classiq substitute)
// and the statevector simulator (internal/qsim): a flat gate list with
// depth/gate-count metrics and linear-topology routing.
package circuit

import (
	"fmt"
	"strconv"
)

// Kind enumerates the supported gates.
type Kind uint8

// Gate kinds: the QAOA gate set internal/synth emits and the SWAP that
// RouteLinear inserts. RZZ is the native MaxCut cost interaction; CNOT+RZ
// is its hardware-basis decomposition.
const (
	H Kind = iota
	RX
	RZ
	RZZ
	CNOT
	SWAP
)

var kindNames = [...]string{"H", "RX", "RZ", "RZZ", "CNOT", "SWAP"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsTwoQubit reports whether the kind acts on two qubits.
func (k Kind) IsTwoQubit() bool {
	switch k {
	case RZZ, CNOT, SWAP:
		return true
	}
	return false
}

// IsParameterized reports whether the kind carries a rotation angle.
func (k Kind) IsParameterized() bool {
	switch k {
	case RX, RZ, RZZ:
		return true
	}
	return false
}

// Gate is one circuit operation. Q1 is -1 for single-qubit gates. For
// CNOT, Q0 is the control and Q1 the target.
type Gate struct {
	Kind  Kind
	Q0    int
	Q1    int
	Param float64
}

// Qubits returns the number of qubits the gate touches (1 or 2).
func (g Gate) Qubits() int {
	if g.Q1 >= 0 {
		return 2
	}
	return 1
}

// String renders the gate in the text format used by Export. Angles use
// shortest-exact formatting so Export/Parse round-trip bit-identically.
func (g Gate) String() string {
	switch {
	case g.Kind.IsParameterized() && g.Qubits() == 2:
		return fmt.Sprintf("%s %d %d %s", g.Kind, g.Q0, g.Q1, strconv.FormatFloat(g.Param, 'g', -1, 64))
	case g.Kind.IsParameterized():
		return fmt.Sprintf("%s %d %s", g.Kind, g.Q0, strconv.FormatFloat(g.Param, 'g', -1, 64))
	case g.Qubits() == 2:
		return fmt.Sprintf("%s %d %d", g.Kind, g.Q0, g.Q1)
	default:
		return fmt.Sprintf("%s %d", g.Kind, g.Q0)
	}
}

// Circuit is an ordered gate list over N qubits.
type Circuit struct {
	N     int
	Gates []Gate
}

// New returns an empty circuit on n qubits (n >= 1).
func New(n int) *Circuit {
	if n < 1 {
		panic("circuit: need at least one qubit")
	}
	return &Circuit{N: n}
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.N {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.N))
	}
}

func (c *Circuit) add1(k Kind, q int, param float64) *Circuit {
	c.checkQubit(q)
	c.Gates = append(c.Gates, Gate{Kind: k, Q0: q, Q1: -1, Param: param})
	return c
}

func (c *Circuit) add2(k Kind, q0, q1 int, param float64) *Circuit {
	c.checkQubit(q0)
	c.checkQubit(q1)
	if q0 == q1 {
		panic(fmt.Sprintf("circuit: two-qubit %v gate on identical qubit %d", k, q0))
	}
	c.Gates = append(c.Gates, Gate{Kind: k, Q0: q0, Q1: q1, Param: param})
	return c
}

// AddH appends a Hadamard on q.
func (c *Circuit) AddH(q int) *Circuit { return c.add1(H, q, 0) }

// AddRX appends RX(theta) on q.
func (c *Circuit) AddRX(q int, theta float64) *Circuit { return c.add1(RX, q, theta) }

// AddRZ appends RZ(theta) on q.
func (c *Circuit) AddRZ(q int, theta float64) *Circuit { return c.add1(RZ, q, theta) }

// AddRZZ appends RZZ(theta) on the pair (a, b).
func (c *Circuit) AddRZZ(a, b int, theta float64) *Circuit { return c.add2(RZZ, a, b, theta) }

// AddCNOT appends a CNOT with the given control and target.
func (c *Circuit) AddCNOT(control, target int) *Circuit { return c.add2(CNOT, control, target, 0) }

// AddSwap appends a SWAP on the pair.
func (c *Circuit) AddSwap(a, b int) *Circuit { return c.add2(SWAP, a, b, 0) }

// Depth returns the circuit depth under ASAP scheduling: each gate lands
// on the earliest layer after every earlier gate that shares a qubit.
func (c *Circuit) Depth() int {
	busy := make([]int, c.N) // deepest layer used per qubit
	depth := 0
	for _, g := range c.Gates {
		layer := busy[g.Q0] + 1
		if g.Q1 >= 0 && busy[g.Q1]+1 > layer {
			layer = busy[g.Q1] + 1
		}
		busy[g.Q0] = layer
		if g.Q1 >= 0 {
			busy[g.Q1] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// TwoQubitCount returns the number of two-qubit gates, the paper's
// synthesis-quality metric ("optimize over ... number of two-qubit
// gates").
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind.IsTwoQubit() {
			n++
		}
	}
	return n
}

// GateCounts tallies gates per kind.
func (c *Circuit) GateCounts() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.Gates {
		m[g.Kind]++
	}
	return m
}

// Backend is the simulator interface a circuit executes against;
// qsim.State implements it.
type Backend interface {
	ApplyH(q int)
	ApplyRX(q int, theta float64)
	ApplyRZ(q int, theta float64)
	ApplyRZZ(q1, q2 int, theta float64)
	ApplyCNOT(control, target int)
	ApplySwap(q1, q2 int)
}

// Apply executes the circuit on the backend.
func (c *Circuit) Apply(b Backend) {
	for _, g := range c.Gates {
		switch g.Kind {
		case H:
			b.ApplyH(g.Q0)
		case RX:
			b.ApplyRX(g.Q0, g.Param)
		case RZ:
			b.ApplyRZ(g.Q0, g.Param)
		case RZZ:
			b.ApplyRZZ(g.Q0, g.Q1, g.Param)
		case CNOT:
			b.ApplyCNOT(g.Q0, g.Q1)
		case SWAP:
			b.ApplySwap(g.Q0, g.Q1)
		default:
			panic(fmt.Sprintf("circuit: cannot execute %v", g.Kind))
		}
	}
}
