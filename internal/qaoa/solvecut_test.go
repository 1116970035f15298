package qaoa

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// digest renders every field of a Result, floats and amplitudes by
// their bits, so two digests are equal exactly when the results are
// bit-identical.
func digest(res *Result) string {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	state := "nil"
	if s := res.State; s != nil {
		h := fnv.New64a()
		var buf [16]byte
		for i := 0; i < s.Len(); i++ {
			a := s.Amp(uint64(i))
			for b := 0; b < 8; b++ {
				buf[b] = byte(math.Float64bits(real(a)) >> (8 * b))
				buf[8+b] = byte(math.Float64bits(imag(a)) >> (8 * b))
			}
			h.Write(buf[:])
		}
		state = fmt.Sprintf("len=%d z2=%d amps=%016x", s.Len(), s.Z2Full(), h.Sum64())
	}
	return fmt.Sprintf("spins=%v value=%x exp=%x gammas=%x betas=%x evals=%d report=%+v layout=%v optimal=%v state=%s",
		res.Cut.Spins, math.Float64bits(res.Cut.Value), math.Float64bits(res.Expectation),
		bits(res.Gammas), bits(res.Betas), res.Evaluations, res.Report, res.Layout, res.Optimal, state)
}

// signedIntegral is an ER graph with integer weights of both signs, the
// shape QAOA² merge graphs have.
func signedIntegral(n int, p float64, r *rng.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				w := float64(int(r.Uint64()%6) - 3) // −3 … 3, never 0
				if w >= 0 {
					w++
				}
				g.MustAddEdge(i, j, w)
			}
		}
	}
	return g
}

// TestSolveCutMatchesSolve is the differential oracle for the certified
// early exit. Where the certificate can be earned (integral weights,
// exact decoding) SolveCut stops no later than Solve and, wherever it
// certifies, returns a maximum cut; wherever it cannot certify, it ran
// Solve's whole trajectory and returns Solve's result bit for bit. Real
// weights and sampled decoding never certify, so there every Result
// field must equal Solve's.
func TestSolveCutMatchesSolve(t *testing.T) {
	type row struct {
		name string
		g    *graph.Graph
		opts Options
	}
	r := rng.New(27)
	var integral, uncertifiable []row
	base := Options{Layers: 2, MaxIters: 30}
	for _, n := range []int{2, 3, 4, 5, 6, 8, 10, 12, 14, 16} {
		integral = append(integral,
			row{fmt.Sprintf("er%d", n), graph.ErdosRenyi(n, 0.5, graph.Unweighted, r), base},
			row{fmt.Sprintf("signed%d", n), signedIntegral(n, 0.5, r), base})
		uncertifiable = append(uncertifiable,
			row{fmt.Sprintf("weighted%d", n), graph.ErdosRenyi(n, 0.5, graph.UniformWeights, r), base})
	}
	for _, size := range []int{3, 5, 8} {
		g, _ := graph.PlantedCommunities(2, size, 0.8, 0.2, graph.Unweighted, r)
		integral = append(integral, row{fmt.Sprintf("planted%d", 2*size), g, base})
	}
	g10 := graph.ErdosRenyi(10, 0.4, graph.Unweighted, r)
	w10 := graph.ErdosRenyi(10, 0.4, graph.UniformWeights, r)
	variants := []struct {
		name string
		opts Options
	}{
		{"p3", Options{Layers: 3}},
		{"top4", Options{Layers: 2, MaxIters: 30, TopK: 4}},
		{"shots", Options{Layers: 2, MaxIters: 30, Shots: 256, Seed: 3}},
		{"restarts", Options{Layers: 2, MaxIters: 30, Restarts: 3, Seed: 5}},
		{"restarts-shots", Options{Layers: 2, MaxIters: 20, Restarts: 3, Shots: 128, Seed: 6}},
	}
	for _, v := range variants {
		integral = append(integral, row{"er10/" + v.name, g10, v.opts})
		uncertifiable = append(uncertifiable, row{"weighted10/" + v.name, w10, v.opts})
		sampled := v.opts
		sampled.DecodeShots = 512
		uncertifiable = append(uncertifiable, row{"er10-sampled/" + v.name, g10, sampled})
	}

	certified, inLoop := 0, 0
	for _, c := range integral {
		full, err := Solve(c.g, c.opts, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		fullDigest := digest(full)
		cut, err := SolveCut(c.g, c.opts, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !cut.Optimal {
			// Never certified: the whole budget ran, as in Solve.
			if full.Optimal || digest(cut) != fullDigest {
				t.Errorf("%s: uncertified SolveCut differs from Solve:\n%s\n%s", c.name, digest(cut), fullDigest)
			}
			continue
		}
		certified++
		if cut.Evaluations > 1 {
			inLoop++
		}
		opt, err := maxcut.BruteForce(c.g)
		if err != nil {
			t.Fatal(err)
		}
		if cut.Cut.Value != opt.Value || cut.Cut.Value != c.g.CutValue(cut.Cut.Spins) {
			t.Errorf("%s: certified cut %v (spins worth %v), optimum %v",
				c.name, cut.Cut.Value, c.g.CutValue(cut.Cut.Spins), opt.Value)
		}
		if full.Optimal && full.Cut.Value != cut.Cut.Value {
			t.Errorf("%s: SolveCut %v, Solve %v", c.name, cut.Cut.Value, full.Cut.Value)
		}
		if cut.Evaluations > full.Evaluations {
			t.Errorf("%s: SolveCut used %d evaluations, Solve %d", c.name, cut.Evaluations, full.Evaluations)
		}
		if c.g.M() > 0 && (len(cut.Gammas) != len(full.Gammas) || cut.State == nil) {
			t.Errorf("%s: certified result lacks its angles or state", c.name)
		}
	}
	if certified < len(integral)*3/4 {
		t.Errorf("only %d of %d integral rows certified: the oracle lost its teeth", certified, len(integral))
	}
	// A row certified after its first point stopped inside the optimizer
	// loop, where the stop must cut COBYLA's run short.
	if inLoop == 0 {
		t.Error("no integral row certified after its first evaluation: the in-loop stop is untested")
	}

	for _, c := range uncertifiable {
		full, err := Solve(c.g, c.opts, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		fullDigest := digest(full)
		cut, err := SolveCut(c.g, c.opts, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(cut); got != fullDigest {
			t.Errorf("%s: SolveCut differs from Solve:\n%s\n%s", c.name, got, fullDigest)
		}
	}
}

// TestSolveCutStopsAtFirstCertifiedPoint: a leaf whose starting point
// already decodes to its maximum cut costs one evaluation, and reports
// that point's angles — the starting ramp — and its exact expectation.
func TestSolveCutStopsAtFirstCertifiedPoint(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(8))
	opts := Options{Layers: 3}
	res, err := SolveCut(g, opts, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Evaluations != 1 {
		t.Fatalf("optimal %v after %d evaluations, want a certificate at the first", res.Optimal, res.Evaluations)
	}
	gammas, betas := InitialParameters(3)
	if fmt.Sprint(res.Gammas, res.Betas) != fmt.Sprint(gammas, betas) {
		t.Fatalf("angles %v %v, want the starting ramp %v %v", res.Gammas, res.Betas, gammas, betas)
	}
	if want := res.State.ExpandZ2().ExpectDiagonal(backend.CutTable(g, nil)); math.Abs(res.Expectation-want) > 1e-9 {
		t.Fatalf("expectation %v, state's %v", res.Expectation, want)
	}
}

// TestSolveCutRestartsAcrossCores: the batched multi-start does not
// stop at a certificate, so SolveCut with Restarts > 1 is Solve bit for
// bit, at every core count; where it certifies, its cut is the maximum
// the single start certifies.
func TestSolveCutRestartsAcrossCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []uint64{3, 4, 7} {
		for _, layers := range []int{1, 2} {
			g := graph.ErdosRenyi(12, 0.4, graph.Unweighted, rng.New(seed))
			opts := Options{Layers: layers, MaxIters: 30, Seed: seed}
			single, err := SolveCut(g, opts, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !single.Optimal {
				t.Fatalf("seed %d p %d: single start did not certify", seed, layers)
			}
			opts.Restarts = 4
			var want string
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				full, err := Solve(g, opts, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				multi, err := SolveCut(g, opts, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got := digest(multi)
				if got != digest(full) {
					t.Fatalf("seed %d p %d GOMAXPROCS %d: SolveCut differs from Solve:\n%s\n%s", seed, layers, procs, got, digest(full))
				}
				if multi.Optimal && multi.Cut.Value != single.Cut.Value {
					t.Fatalf("seed %d p %d GOMAXPROCS %d: certified cut %v, single start %v",
						seed, layers, procs, multi.Cut.Value, single.Cut.Value)
				}
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("seed %d p %d: GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s\n%s", seed, layers, procs, got, want)
				}
			}
		}
	}
}

// diagonalCounter is a backend whose ansätze count Diagonal() calls. It
// forwards backend.TableMaxer, as a decorator must for the certificate
// to stay scan-free.
type diagonalCounter struct {
	backend.Backend
	calls *int
}

func (b diagonalCounter) Prepare(g *graph.Graph, cfg backend.Config) (backend.Ansatz, error) {
	a, err := b.Backend.Prepare(g, cfg)
	return countingAnsatz{Ansatz: a, calls: b.calls}, err
}

type countingAnsatz struct {
	backend.Ansatz
	calls *int
}

func (a countingAnsatz) Diagonal() []float64 {
	*a.calls++
	return a.Ansatz.Diagonal()
}

func (a countingAnsatz) TableMax() float64 { return backend.TableMax(a.Ansatz) }

// TestSolveCutNeverMaterializesDiagonal: an exactly scored, certified
// leaf reads its maximum through backend.TableMax and its cut through
// one decode, so the fused backend never expands its level index into a
// 2^n float64 diagonal. A sampled objective does need it.
func TestSolveCutNeverMaterializesDiagonal(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(8))
	calls := 0
	opts := Options{Layers: 3, Backend: diagonalCounter{Backend: backend.Fused{}, calls: &calls}}
	res, err := SolveCut(g, opts, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || calls != 0 {
		t.Fatalf("optimal %v with %d Diagonal() calls, want a certificate and none", res.Optimal, calls)
	}
	opts.Shots, opts.MaxIters = 64, 3
	if _, err := SolveCut(g, opts, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sampled objective made %d Diagonal() calls, want 1", calls)
	}
}

// TestUnreducedEngineMatchesReduced runs the variational loop on the
// unreduced engine (fused-full) against the default Z2-reduced one:
// Solve and SolveCut must reach the same cut value and the same
// certificate, with expectations within 1e-9. Spins and evaluation
// counts may differ — the two engines' last bits can split a decode
// tie or move COBYLA's trajectory.
func TestUnreducedEngineMatchesReduced(t *testing.T) {
	r := rng.New(48)
	for _, w := range []graph.Weighting{graph.Unweighted, graph.UniformWeights} {
		for _, n := range []int{5, 7, 9, 11, 13} {
			g := graph.ErdosRenyi(n, 0.4, w, r)
			for _, run := range []struct {
				name  string
				solve func(*graph.Graph, Options, *rng.Rand) (*Result, error)
			}{{"Solve", Solve}, {"SolveCut", SolveCut}} {
				var res [2]*Result
				for i, b := range []backend.Fused{{}, {Full: true}} {
					var err error
					res[i], err = run.solve(g, Options{Layers: 2, MaxIters: 30, Backend: b}, rng.New(uint64(n)))
					if err != nil {
						t.Fatal(err)
					}
				}
				red, full := res[0], res[1]
				name := fmt.Sprintf("%s w=%v n=%d", run.name, w, n)
				if red.State.Z2Full() != n || full.State.Z2Full() != 0 {
					t.Fatalf("%s: Z2Full %d reduced, %d full", name, red.State.Z2Full(), full.State.Z2Full())
				}
				if red.Cut.Value != full.Cut.Value || red.Optimal != full.Optimal {
					t.Errorf("%s: reduced cut %v optimal %v, full cut %v optimal %v",
						name, red.Cut.Value, red.Optimal, full.Cut.Value, full.Optimal)
				}
				if math.Abs(red.Expectation-full.Expectation) > 1e-9 {
					t.Errorf("%s: expectations %v reduced vs %v full", name, red.Expectation, full.Expectation)
				}
			}
		}
	}
}

// TestCertifiedLeafAllocatesOnlyItsAnswer: a 12-node unit-weight leaf
// that certifies at its first evaluation allocates its ansatz header and
// cost tables (backend.Fused.Prepare), its one gammas‖betas vector, its
// Result and its decoded spins: five allocations once the engine and the
// level index come from their pools. The optimizer builds no simplex and
// the decode scores its candidates on the stack. The ceiling is that
// plus a tenth, rounded up, as toolchains differ by a few. Under -race
// the pools drop a random share of what they are handed.
func TestCertifiedLeafAllocatesOnlyItsAnswer(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(8))
	opts := Options{Layers: 2}
	res, err := SolveCut(g, opts, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Evaluations != 1 {
		t.Fatalf("optimal %v after %d evaluations, want a certificate at the first", res.Optimal, res.Evaluations)
	}
	res.Release()
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops a random share of what it is handed")
	}
	const ceiling = 6
	allocs := testing.AllocsPerRun(20, func() {
		res, err := SolveCut(g, opts, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs > ceiling {
		t.Fatalf("a certified 12-node leaf allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
