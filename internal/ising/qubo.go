package ising

import "fmt"

// QUBO is a quadratic unconstrained binary optimization objective over
// x ∈ {0,1}^n,
//
//	F(x) = Σ_{i<j} Q_ij x_i x_j + Σ_i L_i x_i + offset,
//
// as a MINIMIZATION objective, mirroring Hamiltonian. ToIsing converts
// it exactly under x_i = (1 − s_i)/2: F(x) = E(s(x)) at every
// assignment, up to floating-point summation order (pinned at 1e-12).
type QUBO struct {
	n      int
	quad   pairs
	linear []float64
	offset float64
}

// NewQUBO returns an empty QUBO over n binary variables (F ≡ 0).
func NewQUBO(n int) *QUBO {
	if n < 0 {
		n = 0
	}
	return &QUBO{n: n, linear: make([]float64, n)}
}

// AddQuad accumulates Q_ij += w. Self-terms are rejected: x_i² = x_i,
// fold them into the linear coefficient instead.
func (q *QUBO) AddQuad(i, j int, w float64) error {
	if i == j {
		return fmt.Errorf("ising: QUBO self-term on variable %d (x_i^2 = x_i; add %g to the linear term instead)", i, w)
	}
	if i < 0 || j < 0 || i >= q.n || j >= q.n {
		return fmt.Errorf("ising: QUBO term (%d,%d) outside 0..%d", i, j, q.n-1)
	}
	q.quad.add(i, j, w)
	return nil
}

// AddLinear accumulates L_i += w.
func (q *QUBO) AddLinear(i int, w float64) error {
	if i < 0 || i >= q.n {
		return fmt.Errorf("ising: QUBO linear term on variable %d outside 0..%d", i, q.n-1)
	}
	q.linear[i] += w
	return nil
}

// AddOffset accumulates the constant term.
func (q *QUBO) AddOffset(c float64) { q.offset += c }

// Value evaluates F(x) for a full 0/1 assignment.
func (q *QUBO) Value(x []uint8) float64 {
	if len(x) != q.n {
		panic(fmt.Sprintf("ising: %d bits for %d QUBO variables", len(x), q.n))
	}
	v := q.offset
	for _, t := range q.quad.terms {
		if x[t.I] == 1 && x[t.J] == 1 {
			v += t.W
		}
	}
	for i, l := range q.linear {
		if l != 0 && x[i] == 1 {
			v += l
		}
	}
	return v
}

// ToIsing converts under x_i = (1 − s_i)/2:
//
//	Q x_i x_j → Q/4 · (1 − s_i − s_j + s_i s_j)
//	L x_i     → L/2 · (1 − s_i)
//
// Minima map one-to-one: F(x) = E(s(x)) for every assignment (the
// conversion tests pin the identity pointwise).
func (q *QUBO) ToIsing() *Hamiltonian {
	h := New(q.n)
	for _, t := range q.quad.terms {
		h.AddCoupling(t.I, t.J, t.W/4)
		h.AddField(t.I, -t.W/4)
		h.AddField(t.J, -t.W/4)
		h.AddOffset(t.W / 4)
	}
	for i, l := range q.linear {
		if l == 0 {
			continue
		}
		h.AddField(i, -l/2)
		h.AddOffset(l / 2)
	}
	h.AddOffset(q.offset)
	return h
}
