package experiments

import (
	"fmt"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
)

// GridConfig parameterizes the Fig. 3 / Table 1 grid search: for every
// (weighting, node count, edge probability) a graph instance is drawn,
// solved once by GW (30-slice average, the paper's comparison value) and
// once by QAOA for every (layers, rhobeg) grid point.
type GridConfig struct {
	NodeCounts []int
	EdgeProbs  []float64
	Layers     []int
	Rhobegs    []float64
	Weightings []graph.Weighting
	// InstancesPerCell draws this many graphs per (weighting, n, p)
	// cell; the paper uses 1 ("a graph instance ... is created for every
	// node count and edge probability").
	InstancesPerCell int
	// Shots is the QAOA objective estimator (0 = exact expectation; the
	// paper uses 4096).
	Shots int
	// DecodeShots selects sampled decoding (see qaoa.Options): used by
	// the reduced-scale defaults, where exact-argmax decoding always
	// finds the optimum and flattens the comparison.
	DecodeShots int
	// Backend selects the QAOA circuit-execution backend for every grid
	// point (nil = the fused default; backend.Dense cross-checks the
	// grid against the reference gate walk).
	Backend backend.Backend
	// Restarts runs every grid point's QAOA as a multi-start
	// (qaoa.Options.Restarts): that many optimizer runs in turn, the
	// best final point by exact expectation kept; 0/1 reproduces the
	// paper's single-start grid.
	Restarts int
	Seed     uint64
}

// DefaultFig3Config is the laptop-scale reduction of the paper's grid
// (nodes 15-25 → 8-14, layers 3-8 → 2-4; see DESIGN.md): the structure —
// QAOA wins concentrated at low edge probability — is preserved while a
// full run stays in CI budgets.
func DefaultFig3Config() GridConfig {
	return GridConfig{
		NodeCounts:       []int{8, 10, 12, 14},
		EdgeProbs:        []float64{0.1, 0.3, 0.5},
		Layers:           []int{2, 3, 4},
		Rhobegs:          []float64{0.1, 0.3, 0.5},
		Weightings:       []graph.Weighting{graph.Unweighted, graph.UniformWeights},
		InstancesPerCell: 1,
		Shots:            qaoa.DefaultShots, // 4096, as in the paper
		DecodeShots:      qaoa.DefaultShots, // device-like decoding at reduced scale
		Seed:             1,
	}
}

// FullFig3Config is the paper-scale grid (§4): nodes 15-25, edge
// probabilities 0.1-0.5, p ∈ 3..8, rhobeg ∈ 0.1..0.5, 4096 shots.
// Expect hours of CPU time at this scale.
func FullFig3Config() GridConfig {
	return GridConfig{
		NodeCounts:       []int{15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25},
		EdgeProbs:        []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Layers:           []int{3, 4, 5, 6, 7, 8},
		Rhobegs:          []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Weightings:       []graph.Weighting{graph.Unweighted, graph.UniformWeights},
		InstancesPerCell: 1,
		Shots:            qaoa.DefaultShots,
		Seed:             1,
	}
}

// GridRecord is one QAOA-vs-GW comparison: a single (graph, layers,
// rhobeg) grid point.
type GridRecord struct {
	Weighting graph.Weighting
	Nodes     int
	Prob      float64
	Instance  int
	Layers    int
	Rhobeg    float64
	QAOAValue float64 // decoded MaxCut value
	GWAverage float64 // 30-slice average, the paper's GW number
	// Graph retains the instance so downstream consumers (the ML
	// selector) can extract features.
	Graph *graph.Graph
}

// QAOAWins reports the paper's Fig. 3(a)/3(c) predicate: QAOA strictly
// larger than GW.
func (r GridRecord) QAOAWins() bool { return r.QAOAValue > r.GWAverage }

// QAOANear reports the Fig. 3(b) predicate: QAOA within [95,100)% of GW.
func (r GridRecord) QAOANear() bool {
	return r.QAOAValue >= 0.95*r.GWAverage && r.QAOAValue < r.GWAverage
}

// GridResult is a completed grid search.
type GridResult struct {
	Config  GridConfig
	Records []GridRecord
}

// cellSeed is the stable per-cell stream: instance identity does not
// depend on the sweep order.
func (cfg GridConfig) cellSeed(w graph.Weighting, ni, pi, inst int) uint64 {
	return cfg.Seed ^ uint64(w+1)<<40 ^ uint64(ni+1)<<20 ^ uint64(pi+1)<<8 ^ uint64(inst)
}

// RunGrid executes the grid search. Deterministic for a fixed config.
func RunGrid(cfg GridConfig) (*GridResult, error) {
	if len(cfg.NodeCounts) == 0 || len(cfg.EdgeProbs) == 0 || len(cfg.Layers) == 0 ||
		len(cfg.Rhobegs) == 0 || len(cfg.Weightings) == 0 {
		return nil, fmt.Errorf("experiments: empty grid axis")
	}
	if cfg.InstancesPerCell <= 0 {
		cfg.InstancesPerCell = 1
	}
	res := &GridResult{Config: cfg}
	for _, w := range cfg.Weightings {
		for ni, n := range cfg.NodeCounts {
			for pi, p := range cfg.EdgeProbs {
				for inst := 0; inst < cfg.InstancesPerCell; inst++ {
					cellSeed := cfg.cellSeed(w, ni, pi, inst)
					r := rng.New(cellSeed)
					g := graph.ErdosRenyi(n, p, w, r)
					gwRes, err := gw.Solve(g, sdp.Options{}, r.Split(1))
					if err != nil {
						return nil, fmt.Errorf("experiments: GW on n=%d p=%v: %w", n, p, err)
					}
					for _, layers := range cfg.Layers {
						for _, rhobeg := range cfg.Rhobegs {
							qres, err := qaoa.Solve(g, qaoa.Options{
								Layers:      layers,
								MaxIters:    qaoa.IterationsFor(layers),
								Rhobeg:      rhobeg,
								Shots:       cfg.Shots,
								DecodeShots: cfg.DecodeShots,
								Backend:     cfg.Backend,
								Restarts:    cfg.Restarts,
								Seed:        cellSeed ^ uint64(layers)<<32 ^ uint64(rhobeg*1000),
							}, r.Split(uint64(layers)<<16|uint64(rhobeg*1000)))
							if err != nil {
								return nil, fmt.Errorf("experiments: QAOA n=%d p=%v layers=%d: %w", n, p, layers, err)
							}
							res.Records = append(res.Records, GridRecord{
								Weighting: w, Nodes: n, Prob: p, Instance: inst,
								Layers: layers, Rhobeg: rhobeg,
								QAOAValue: qres.Cut.Value,
								GWAverage: gwRes.Average,
								Graph:     g,
							})
						}
					}
				}
			}
		}
	}
	return res, nil
}

// CellProportions aggregates records per (node count, edge probability)
// for one weighting — the layout of Fig. 3(a) and 3(b). pred selects
// the counted predicate.
func (gr *GridResult) CellProportions(w graph.Weighting, pred func(GridRecord) bool) [][]float64 {
	cfg := gr.Config
	out := make([][]float64, len(cfg.NodeCounts))
	for i := range out {
		out[i] = make([]float64, len(cfg.EdgeProbs))
	}
	counts := make([][]int, len(cfg.NodeCounts))
	for i := range counts {
		counts[i] = make([]int, len(cfg.EdgeProbs))
	}
	nIdx := indexOfInts(cfg.NodeCounts)
	pIdx := indexOfFloats(cfg.EdgeProbs)
	for _, r := range gr.Records {
		if r.Weighting != w {
			continue
		}
		i, j := nIdx[r.Nodes], pIdx[r.Prob]
		counts[i][j]++
		if pred(r) {
			out[i][j]++
		}
	}
	for i := range out {
		for j := range out[i] {
			if counts[i][j] > 0 {
				out[i][j] /= float64(counts[i][j])
			}
		}
	}
	return out
}

// GridProportions aggregates records per (rhobeg, layers) — the layout
// of Fig. 3(c).
func (gr *GridResult) GridProportions(w graph.Weighting, pred func(GridRecord) bool) [][]float64 {
	cfg := gr.Config
	out := make([][]float64, len(cfg.Rhobegs))
	counts := make([][]int, len(cfg.Rhobegs))
	for i := range out {
		out[i] = make([]float64, len(cfg.Layers))
		counts[i] = make([]int, len(cfg.Layers))
	}
	rIdx := indexOfFloats(cfg.Rhobegs)
	lIdx := indexOfInts(cfg.Layers)
	for _, r := range gr.Records {
		if r.Weighting != w {
			continue
		}
		i, j := rIdx[r.Rhobeg], lIdx[r.Layers]
		counts[i][j]++
		if pred(r) {
			out[i][j]++
		}
	}
	for i := range out {
		for j := range out[i] {
			if counts[i][j] > 0 {
				out[i][j] /= float64(counts[i][j])
			}
		}
	}
	return out
}

// BestGridPoint returns the (layers, rhobeg) with the highest win
// proportion over all records — the paper reports (rhobeg=0.5, p=6) for
// its grid.
func (gr *GridResult) BestGridPoint() (layers int, rhobeg float64, winRate float64) {
	type key struct {
		l int
		r float64
	}
	wins := map[key]int{}
	tot := map[key]int{}
	for _, rec := range gr.Records {
		k := key{rec.Layers, rec.Rhobeg}
		tot[k]++
		if rec.QAOAWins() {
			wins[k]++
		}
	}
	best := key{}
	bestRate := -1.0
	for k, t := range tot {
		rate := float64(wins[k]) / float64(t)
		if rate > bestRate || (rate == bestRate && (k.l < best.l || (k.l == best.l && k.r < best.r))) {
			best, bestRate = k, rate
		}
	}
	return best.l, best.r, bestRate
}

// RenderFig3 renders the three panels of Fig. 3 for both weightings.
func RenderFig3(gr *GridResult) string {
	cfg := gr.Config
	rows := make([]string, len(cfg.NodeCounts))
	for i, n := range cfg.NodeCounts {
		rows[i] = fmt.Sprintf("%d", n)
	}
	cols := make([]string, len(cfg.EdgeProbs))
	for j, p := range cfg.EdgeProbs {
		cols[j] = fmt.Sprintf("%.1f", p)
	}
	rrows := make([]string, len(cfg.Rhobegs))
	for i, r := range cfg.Rhobegs {
		rrows[i] = fmt.Sprintf("%.1f", r)
	}
	lcols := make([]string, len(cfg.Layers))
	for j, l := range cfg.Layers {
		lcols[j] = fmt.Sprintf("%d", l)
	}
	out := ""
	for _, w := range cfg.Weightings {
		out += RenderHeatmap(
			fmt.Sprintf("Fig3a (%s): P[QAOA > GW] by node count x edge probability", w),
			"n", "p", rows, cols, gr.CellProportions(w, GridRecord.QAOAWins)) + "\n"
	}
	for _, w := range cfg.Weightings {
		out += RenderHeatmap(
			fmt.Sprintf("Fig3b (%s): P[QAOA in [95,100)%% of GW]", w),
			"n", "p", rows, cols, gr.CellProportions(w, GridRecord.QAOANear)) + "\n"
	}
	for _, w := range cfg.Weightings {
		out += RenderHeatmap(
			fmt.Sprintf("Fig3c (%s): P[QAOA > GW] by rhobeg x layers", w),
			"rho", "p", rrows, lcols, gr.GridProportions(w, GridRecord.QAOAWins)) + "\n"
	}
	l, r, rate := gr.BestGridPoint()
	out += fmt.Sprintf("best grid point: layers=%d rhobeg=%.1f win-rate=%.3f\n", l, r, rate)
	return out
}

func indexOfInts(xs []int) map[int]int {
	m := make(map[int]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}

func indexOfFloats(xs []float64) map[float64]int {
	m := make(map[float64]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}
