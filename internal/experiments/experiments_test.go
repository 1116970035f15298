package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
)

// tinyGrid keeps unit tests fast; the benches run DefaultFig3Config.
func tinyGrid() GridConfig {
	return GridConfig{
		NodeCounts:       []int{6, 8},
		EdgeProbs:        []float64{0.2, 0.5},
		Layers:           []int{2},
		Rhobegs:          []float64{0.1, 0.5},
		Weightings:       []graph.Weighting{graph.Unweighted, graph.UniformWeights},
		InstancesPerCell: 1,
		Seed:             7,
	}
}

func TestRunGridShapeAndDeterminism(t *testing.T) {
	res, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 1 * 2 * 1 // weightings·nodes·probs·layers·rhobegs·instances
	if len(res.Records) != want {
		t.Fatalf("records %d want %d", len(res.Records), want)
	}
	res2, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if res.Records[i].QAOAValue != res2.Records[i].QAOAValue ||
			res.Records[i].GWAverage != res2.Records[i].GWAverage {
			t.Fatalf("grid not deterministic at record %d", i)
		}
	}
}

func TestRunGridValidation(t *testing.T) {
	cfg := tinyGrid()
	cfg.Layers = nil
	if _, err := RunGrid(cfg); err == nil {
		t.Fatal("empty axis accepted")
	}
}

func TestCellAndGridProportionsInRange(t *testing.T) {
	res, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Config.Weightings {
		for _, m := range [][][]float64{
			res.CellProportions(w, GridRecord.QAOAWins),
			res.CellProportions(w, GridRecord.QAOANear),
			res.GridProportions(w, GridRecord.QAOAWins),
		} {
			for _, row := range m {
				for _, v := range row {
					if v < 0 || v > 1 {
						t.Fatalf("proportion %v outside [0,1]", v)
					}
				}
			}
		}
	}
}

func TestPredicatesAreDisjoint(t *testing.T) {
	res, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.QAOAWins() && r.QAOANear() {
			t.Fatalf("record both wins and near: %+v", r)
		}
	}
}

func TestBestGridPointIsFromGrid(t *testing.T) {
	res, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	l, r, rate := res.BestGridPoint()
	if l != 2 {
		t.Fatalf("layers %d not in grid", l)
	}
	if r != 0.1 && r != 0.5 {
		t.Fatalf("rhobeg %v not in grid", r)
	}
	if rate < 0 || rate > 1 {
		t.Fatalf("rate %v", rate)
	}
}

func TestRenderFig3AndTable1(t *testing.T) {
	res, err := RunGrid(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFig3(res)
	for _, want := range []string{"Fig3a", "Fig3b", "Fig3c", "best grid point"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 render missing %q:\n%s", want, out)
		}
	}
	tbl := RenderTable1(res)
	if !strings.Contains(tbl, "Table1 (top)") || !strings.Contains(tbl, "Table1 (bottom)") {
		t.Fatalf("Table1 render:\n%s", tbl)
	}
	rows := Table1Rows(res)
	if len(rows) != len(res.Config.NodeCounts)*2 {
		t.Fatalf("table1 rows %d", len(rows))
	}
	// The tiny grid's panels as the per-panel counting loops printed
	// them before Fig. 3 and Table 1 shared one aggregation.
	const wantFig3 = "Fig3a (unweighted): P[QAOA > GW] by node count x edge probability\n" +
		"     n\\p     0.2     0.5\n" +
		"       6       0       1\n" +
		"       8       0       1\n" +
		"\n" +
		"Fig3a (weighted): P[QAOA > GW] by node count x edge probability\n" +
		"     n\\p     0.2     0.5\n" +
		"       6       0       1\n" +
		"       8       1       1\n" +
		"\n" +
		"Fig3b (unweighted): P[QAOA in [95,100)% of GW]\n" +
		"     n\\p     0.2     0.5\n" +
		"       6       0       0\n" +
		"       8       0       0\n" +
		"\n" +
		"Fig3b (weighted): P[QAOA in [95,100)% of GW]\n" +
		"     n\\p     0.2     0.5\n" +
		"       6       0       0\n" +
		"       8       0       0\n" +
		"\n" +
		"Fig3c (unweighted): P[QAOA > GW] by rhobeg x layers\n" +
		"   rho\\p       2\n" +
		"     0.1     0.5\n" +
		"     0.5     0.5\n" +
		"\n" +
		"Fig3c (weighted): P[QAOA > GW] by rhobeg x layers\n" +
		"   rho\\p       2\n" +
		"     0.1    0.75\n" +
		"     0.5    0.75\n" +
		"\n" +
		"best grid point: layers=2 rhobeg=0.1 win-rate=0.625\n"
	const wantTable1 = "Table1 (top): P[QAOA > GW]\n" +
		"nodes  weighted  p=0.2  p=0.5\n" +
		"6      yes       0.000  1.000\n" +
		"6      no        0.000  1.000\n" +
		"8      yes       1.000  1.000\n" +
		"8      no        0.000  1.000\n" +
		"\n" +
		"Table1 (bottom): P[QAOA in [95,100)% of GW]\n" +
		"nodes  weighted  p=0.2  p=0.5\n" +
		"6      yes       0.000  0.000\n" +
		"6      no        0.000  0.000\n" +
		"8      yes       0.000  0.000\n" +
		"8      no        0.000  0.000\n"
	if out != wantFig3 {
		t.Errorf("Fig3 render:\n%s\nwant:\n%s", out, wantFig3)
	}
	if tbl != wantTable1 {
		t.Errorf("Table1 render:\n%s\nwant:\n%s", tbl, wantTable1)
	}
}

// TestRendersIgnoreCoreCount renders the tiny grid and a small Fig. 4
// at GOMAXPROCS 1 and 4: fanOut spreads their cells and rows over the
// cores, and the bytes must not depend on how many there are. The
// records are listed too, since the selector's shuffle reads their
// order.
func TestRendersIgnoreCoreCount(t *testing.T) {
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := RunGrid(tinyGrid())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := RunFig4(Fig4Config{
			NodeCounts: []int{30, 40, 50},
			EdgeProb:   0.15,
			MaxQubits:  8,
			QAOA:       qaoa.Options{Layers: 2, MaxIters: 25},
			Seed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := RenderFig3(res) + RenderTable1(res) + RenderFig4(rows)
		for _, r := range res.Records {
			out += fmt.Sprintln(r.Weighting, r.Nodes, r.Prob, r.Instance, r.Layers, r.Rhobeg, r.QAOAValue, r.GWAverage)
		}
		return out
	}
	if one, four := render(1), render(4); one != four {
		t.Fatalf("GOMAXPROCS 1:\n%s\nGOMAXPROCS 4:\n%s", one, four)
	}
}

func TestRunFig4SmallAndShapes(t *testing.T) {
	cfg := Fig4Config{
		NodeCounts: []int{40},
		EdgeProb:   0.15,
		MaxQubits:  8,
		QAOA:       qaoa.Options{Layers: 2, MaxIters: 25},
		Seed:       5,
	}
	rows, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	r := rows[0]
	if r.SubGraphs < 2 {
		t.Fatalf("no decomposition: %+v", r)
	}
	// Baseline sanity: every structured method beats a single random cut.
	for name, v := range map[string]float64{"classic": r.Classic, "qaoa": r.QAOA, "best": r.Best, "exact": r.Exact, "gw": r.GWFull} {
		if v <= r.Random*0.95 {
			t.Fatalf("%s=%v not clearly above random=%v", name, v, r.Random)
		}
	}
	out := RenderFig4(rows)
	if !strings.Contains(out, "Fig4") || !strings.Contains(out, "40") {
		t.Fatalf("fig4 render:\n%s", out)
	}
}

func TestRunFig4Validation(t *testing.T) {
	if _, err := RunFig4(Fig4Config{MaxQubits: 1}); err == nil {
		t.Fatal("bad MaxQubits accepted")
	}
}

func TestRunFig1IdleReduction(t *testing.T) {
	res, err := RunFig1(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Het.QPUIdleFrac >= res.Mono.QPUIdleFrac {
		t.Fatalf("het idle %v not below mono %v", res.Het.QPUIdleFrac, res.Mono.QPUIdleFrac)
	}
	if res.Het.Makespan > res.Mono.Makespan {
		t.Fatalf("het makespan regressed: %v vs %v", res.Het.Makespan, res.Mono.Makespan)
	}
	out := RenderFig1(res)
	if !strings.Contains(out, "heterogeneous") {
		t.Fatalf("fig1 render:\n%s", out)
	}
	// The four-job table, as the scheduler printed it while it built
	// its units in three places.
	res, err = RunFig1(4)
	if err != nil {
		t.Fatal(err)
	}
	const want = "Fig1: heterogeneous jobs vs monolithic allocation\n" +
		"allocation     makespan  QPU busy  QPU held  QPU idle frac\n" +
		"monolithic     72.000    8.000     72.000    0.889        \n" +
		"heterogeneous  24.000    8.000     8.000     0.667        \n"
	if out := RenderFig1(res); out != want {
		t.Fatalf("fig1 render:\n%s\nwant:\n%s", out, want)
	}
}

func TestRunFig2Workflow(t *testing.T) {
	cfg := Fig2Config{Nodes: 60, EdgeProb: 0.1, Workers: []int{1, 2, 4}, MaxQubits: 10, Seed: 6}
	points, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	// Same instance and per-part seeding: one cut at every worker count.
	for _, p := range points[1:] {
		if math.Float64bits(p.Cut) != math.Float64bits(points[0].Cut) || p.Tasks != points[0].Tasks {
			t.Fatalf("%d workers: cut %v in %d tasks, 1 worker: %v in %d",
				p.Workers, p.Cut, p.Tasks, points[0].Cut, points[0].Tasks)
		}
	}
	if points[0].Tasks == 0 || points[0].SumBusy <= 0 {
		t.Fatalf("no work recorded: %+v", points[0])
	}
	// The router sends 7 parts to QAOA and 1 to GW here. The cut was
	// read when the router was a logistic gate on density, whose
	// decision the plain threshold reproduces bit for bit.
	if got := math.Float64bits(points[0].Cut); got != 0x405f400000000000 { // 125
		t.Fatalf("cut %v (%#x), want 125", points[0].Cut, got)
	}
	out := RenderFig2(points)
	if !strings.Contains(out, "workers") {
		t.Fatalf("fig2 render:\n%s", out)
	}
}

// TestRunEngineScalingRows: a one-core row and a GOMAXPROCS row, both
// timed, rendered with a core column, and the caller's GOMAXPROCS
// restored afterwards.
func TestRunEngineScalingRows(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	points, err := RunEngineScaling(10, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Cores != 1 || points[1].Cores != procs {
		t.Fatalf("rows %+v, want cores 1 and %d", points, procs)
	}
	for _, p := range points {
		if p.Qubits != 10 || p.Seconds <= 0 {
			t.Fatalf("row %+v", p)
		}
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Fatalf("GOMAXPROCS %d after the run, want %d", got, procs)
	}
	out := RenderEngineScaling(points)
	if !strings.Contains(out, "cores") || !strings.Contains(out, "kernel pool") {
		t.Fatalf("engine scaling render:\n%s", out)
	}
}

// TestRunGWScalingCertified: every size reports its relaxation value,
// the dual bound of that relaxation and the GW mean, in that order
// from below: no cut beats the bound, and the bound sits within 1e-3
// of the value.
func TestRunGWScalingCertified(t *testing.T) {
	points, err := RunGWScaling([]int{30, 150}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d: %+v", len(points), points)
	}
	for _, p := range points {
		if p.AvgCut > p.Bound || p.SDPValue > p.Bound || p.Bound > p.SDPValue*(1+1e-3) {
			t.Fatalf("cut, value and bound out of order: %+v", p)
		}
	}
	if out := RenderGWScaling(points); !strings.Contains(out, "bound") || !strings.Contains(out, "gap") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestFig4NothingBeatsTheBound runs every Fig. 4 series on ER(150/300/
// 450, 0.1) instances, unweighted and uniform-weight, with 10-qubit
// p = 2 leaves (the paper-scale rows take minutes): no series and no
// GW-full rounding exceeds the certified bound, and GW-full's
// relaxation is within 1e-3 of it.
func TestFig4NothingBeatsTheBound(t *testing.T) {
	cfg := Fig4Config{
		NodeCounts: []int{150, 300, 450},
		EdgeProb:   0.1,
		MaxQubits:  10,
		QAOA:       qaoa.Options{Layers: 2, MaxIters: 30},
		Seed:       3,
	}
	for _, w := range []graph.Weighting{graph.Unweighted, graph.UniformWeights} {
		for _, n := range cfg.NodeCounts {
			seed := cfg.Seed ^ uint64(n)<<16
			g := graph.ErdosRenyi(n, cfg.EdgeProb, w, rng.New(seed))
			row, err := fig4Row(g, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%v n=%d", w, n)
			for name, v := range map[string]float64{"Random": row.Random, "Classic": row.Classic, "QAOA": row.QAOA, "Best": row.Best, "Exact": row.Exact, "GW mean": row.GWFull} {
				if v > row.Bound {
					t.Errorf("%s: %s %v above the bound %v", id, name, v, row.Bound)
				}
			}
			// The best of 30 roundings dominates every rounding.
			full, err := gw.Solve(g, sdp.Options{Seed: seed}, rng.New(seed^0xf1f1))
			if err != nil {
				t.Fatal(err)
			}
			if full.Best.Value > row.Bound {
				t.Errorf("%s: GW rounding %v above the bound %v", id, full.Best.Value, row.Bound)
			}
			value := full.Relaxation.Value
			if gap := (row.Bound - value) / value; gap > 1e-3 || gap < 0 {
				t.Errorf("%s: relaxation %v, bound %v: gap %.3g", id, value, row.Bound, gap)
			}
			t.Logf("%s: QAOA/bound %.4f, gap %.2g", id, row.QAOA/row.Bound, (row.Bound-value)/value)
		}
	}
}

func TestSynthesisAblationImprovesDepth(t *testing.T) {
	pairs, err := SynthesisAblation(12, 0.4, 2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, p := range pairs {
		if p[1] > p[0] {
			t.Fatalf("optimized depth %d worse than naive %d", p[1], p[0])
		}
		if p[1] < p[0] {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("depth optimization never improved on random instances")
	}
}

func TestRenderHelpers(t *testing.T) {
	h := RenderHeatmap("t", "r", "c", []string{"a"}, []string{"x", "y"}, [][]float64{{1, 0.5}})
	if !strings.Contains(h, "t") || !strings.Contains(h, "0.5") {
		t.Fatalf("heatmap:\n%s", h)
	}
	tb := RenderTable("t", []string{"h1", "h2"}, [][]string{{"a", "b"}})
	if !strings.Contains(tb, "h1") || !strings.Contains(tb, "b") {
		t.Fatalf("table:\n%s", tb)
	}
}
