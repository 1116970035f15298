package sdp

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
)

// dualBoundLimit is the largest order DualBound certifies: the proof
// factors one dense n×n matrix, 72 MB at 3 000 nodes.
const dualBoundLimit = 3000

// bisectionSteps is how many geometric bisection steps DualBound takes
// between the largest shift whose factorization failed and the
// smallest one whose factorization succeeded.
const bisectionSteps = 6

// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one float64
// operation.
const unitRoundoff = 0x1p-53

// DualBound returns a certified upper bound on the SDP optimum of g, and
// so on its maximum cut, from the embedding res of Solve. It holds for
// any weights, negative ones included, and for any res: a poor
// embedding only loosens it.
//
// The dual of the MaxCut SDP is: minimize Σy_i subject to
// M = Diag(y) − L/4 ⪰ 0. At a fixed point of the mixing method,
// v_i = −g_i/‖g_i‖ with g_i = Σ_j w_ij v_j, and the complementary
// choice is y_i = (d_i + ‖g_i‖)/4, d_i the weighted degree. DualBound
// factors A = 4(M + δI): its off-diagonal entries are the weights
// w_ij = −L_ij, exactly, and its diagonal is ‖g_i‖ + δ' with δ' = 4δ
// (d_i cancels, so no rounded degree sum enters). If A + η·I ⪰ 0, then
// for every feasible X, and every cut s as X = ssᵀ,
//
//	¼⟨L, X⟩ ≤ ¼(Σ_i A_ii + n·η) + ½ Σ_{(i,j)∈E} w_ij = Σy_i + n(δ + η/4).
//
// A floating-point Cholesky factorization of A that succeeds proves
// A + η·I ⪰ 0: by Demmel's backward error bound for Cholesky, as Rump
// uses it to verify positive definiteness (BIT 46, 2006), success
// means A + ΔA ⪰ 0 with ‖ΔA‖₂ ≤ γ_{n+1}/(1 − γ_{n+1})·tr(A), where
// γ_k = ku/(1 − ku) and u = 2⁻⁵³. η is that term, inflated by 2γ_{n+4}
// to cover its own rounding, plus an underflow allowance
// 2(n+1)²(2 + max A_ii)·2⁻¹⁰⁷⁴; it is computed for every factorization,
// never assumed. The final sum is rounded upward: its worst-case
// recursive-summation error is added back and the result moved up one
// ulp.
//
// δ' comes from a decade ladder relative to max_i ‖g_i‖: it climbs
// until a factorization succeeds, or, if the first did, descends until
// one fails; then six geometric bisection steps narrow the gap. Each
// rung is one O(n³/6) factorization, about ten in all: 0.35, 1.9–3.1,
// 6.6–8.2, 18–25 and 38–39 s at the 500, 1 000, 1 500, 2 000 and
// 2 500 nodes of Fig. 4 (seed 3, two runs) on a shared 2-vCPU Xeon.
//
// DualBound refuses graphs over 3 000 nodes with a *graph.RefusedError.
// It reads g and res and changes neither; no solve path calls it.
func DualBound(g *graph.Graph, res *Result) (float64, error) {
	n := g.N()
	if n > dualBoundLimit {
		return 0, &graph.RefusedError{Reason: fmt.Sprintf(
			"%d nodes, limit %d for a dual bound (one dense n×n factorization)", n, dualBoundLimit)}
	}
	if res == nil || res.Vectors == nil || res.Vectors.Rows != n {
		return 0, fmt.Errorf("sdp: dual bound needs an embedding of all %d nodes", n)
	}
	if len(g.Edges()) == 0 {
		return 0, nil
	}
	// grad[i] = ‖g_i‖; scale, the ladder's unit, is their maximum (1 if
	// every one vanishes).
	grad := make([]float64, n)
	gvec := make([]float64, res.Vectors.Cols)
	scale := 0.0
	for i := range grad {
		clear(gvec)
		for _, h := range g.Neighbors(i) {
			linalg.Axpy(h.W, res.Vectors.Row(h.To), gvec)
		}
		grad[i] = linalg.Norm2(gvec)
		scale = math.Max(scale, grad[i])
	}
	if scale == 0 {
		scale = 1
	}

	// a keeps L in its strict upper triangle; each attempt copies −L
	// (the weights) to the lower triangle, sets the diagonal to
	// grad + shift and factors the lower triangle in place, returning
	// η for that diagonal.
	a := g.Laplacian()
	factors := func(shift float64) (eta float64, ok bool) {
		trace, maxDiag := 0.0, 0.0
		for i := range n {
			row := a.Row(i)
			for j := range i {
				row[j] = -a.Data[j*n+i]
			}
			row[i] = grad[i] + shift
			trace += row[i]
			maxDiag = math.Max(maxDiag, row[i])
		}
		// γ_{n+1}/(1−γ_{n+1})·tr(A), inflated by 2γ_{n+4} for the
		// rounding of tr(A) and of this expression.
		gamma := gammaOf(n + 1)
		eta = (1+2*gammaOf(n+4))*gamma/(1-gamma)*trace + 2*float64(n+1)*float64(n+1)*(2+maxDiag)*0x1p-1074
		return eta, cholesky(a)
	}

	// The ladder climbs by decades from scale until a factorization
	// succeeds; if the first one did, it descends until one fails.
	// Bisection then narrows (lo, hi], hi always certified.
	lo, hi := 0.0, scale
	eta, ok := factors(hi)
	for k := 0; !ok; k++ {
		if k == 20 { // a NaN or infinite weight or embedding
			return 0, fmt.Errorf("sdp: no diagonal shift up to %g made the dual slack factor", hi)
		}
		lo, hi = hi, hi*10
		eta, ok = factors(hi)
	}
	for lo == 0 && hi > scale*1e-16 {
		if e, ok := factors(hi / 10); ok {
			hi, eta = hi/10, e
		} else {
			lo = hi / 10
		}
	}
	for step := 0; step < bisectionSteps && lo > 0; step++ {
		mid := math.Sqrt(lo * hi)
		if e, ok := factors(mid); ok {
			hi, eta = mid, e
		} else {
			lo = mid
		}
	}

	// ¼(Σ_i A_ii + n·η) + ½Σw, rounded upward: recursive summation of k
	// terms errs by at most γ_{k−1}·Σ|t|, and twice that (which also
	// covers the rounding of Σ|t| itself) is added before one ulp up.
	sum, abs := 0.0, 0.0
	for _, e := range g.Edges() {
		sum += e.W / 2
		abs += math.Abs(e.W) / 2
	}
	for i := range n {
		d := (grad[i] + hi) / 4
		sum += d
		abs += d
	}
	t := float64(n) * eta / 4 * (1 + 2*unitRoundoff)
	sum += t
	abs += t
	return math.Nextafter(sum+2*gammaOf(len(g.Edges())+n+3)*abs, math.Inf(1)), nil
}

// cholesky factors the lower triangle of a in place, row by row
// (a = R Rᵀ with R lower triangular), and reports whether every pivot
// was positive. The strict upper triangle is neither read nor written.
// A NaN pivot fails.
func cholesky(a *linalg.Dense) bool {
	n := a.N
	for i := range n {
		ri := a.Row(i)
		for j := 0; j <= i; j++ {
			rj := a.Row(j)
			s := ri[j] - linalg.Dot(ri[:j], rj[:j])
			if j < i {
				ri[j] = s / rj[j]
			} else if s > 0 {
				ri[i] = math.Sqrt(s)
			} else {
				return false
			}
		}
	}
	return true
}

// gammaOf returns γ_k = ku/(1 − ku), the classical bound on the relative
// error of k chained float64 operations.
func gammaOf(k int) float64 {
	ku := float64(k) * unitRoundoff
	return ku / (1 - ku)
}
