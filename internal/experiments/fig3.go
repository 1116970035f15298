package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// RunGrid executes the grid search, its cells on every core (fanOut).
// Deterministic for a fixed config: each cell's streams derive from its
// own index, and the records keep the serial sweep order.
func RunGrid(cfg GridConfig) (*GridResult, error) {
	if len(cfg.NodeCounts) == 0 || len(cfg.EdgeProbs) == 0 || len(cfg.Layers) == 0 ||
		len(cfg.Rhobegs) == 0 || len(cfg.Weightings) == 0 {
		return nil, fmt.Errorf("experiments: empty grid axis")
	}
	if cfg.InstancesPerCell <= 0 {
		cfg.InstancesPerCell = 1
	}
	var cells []gridCell
	for _, w := range cfg.Weightings {
		for ni := range cfg.NodeCounts {
			for pi := range cfg.EdgeProbs {
				for inst := 0; inst < cfg.InstancesPerCell; inst++ {
					cells = append(cells, gridCell{w, ni, pi, inst})
				}
			}
		}
	}
	records := make([][]GridRecord, len(cells))
	if err := fanOut(len(cells), func(c int) (err error) {
		records[c], err = cfg.runCell(cells[c])
		return err
	}); err != nil {
		return nil, err
	}
	return &GridResult{Config: cfg, Records: slices.Concat(records...)}, nil
}

// gridCell is one (weighting, node count, edge probability, instance)
// cell of the grid, by axis index.
type gridCell struct {
	w            graph.Weighting
	ni, pi, inst int
}

// runCell draws one cell's graph, solves it once by GW and by QAOA at
// every (layers, rhobeg) grid point, and returns the cell's records in
// grid order.
func (cfg GridConfig) runCell(c gridCell) ([]GridRecord, error) {
	w, n, p, inst := c.w, cfg.NodeCounts[c.ni], cfg.EdgeProbs[c.pi], c.inst
	cellSeed := cfg.cellSeed(w, c.ni, c.pi, inst)
	r := rng.New(cellSeed)
	g := graph.ErdosRenyi(n, p, w, r)
	gwRes, err := gw.Solve(g, sdp.Options{}, r.Split(1))
	if err != nil {
		return nil, fmt.Errorf("experiments: GW on n=%d p=%v: %w", n, p, err)
	}
	var records []GridRecord
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
			records = append(records, GridRecord{
				Weighting: w, Nodes: n, Prob: p, Instance: inst,
				Layers: layers, Rhobeg: rhobeg,
				QAOAValue: qres.Cut.Value,
				GWAverage: gwRes.Average,
			})
		}
	}
	return records, nil
}

// fanOut calls do(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines and returns the error of the lowest failing index. Each
// call writes only its own index's result, so callers keep the serial
// order at every core count. Indices are handed out last first: the
// experiments list their sizes ascending, so the largest start first.
func fanOut(n int, do func(i int) error) error {
	errs := make([]error, n)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := n - int(claimed.Add(1)); i >= 0; i = n - int(claimed.Add(1)) {
				errs[i] = do(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CellProportions aggregates records per (node count, edge probability)
// for one weighting — the layout of Fig. 3(a) and 3(b). pred selects
// the counted predicate.
func (gr *GridResult) CellProportions(w graph.Weighting, pred func(GridRecord) bool) [][]float64 {
	return proportions(gr, w, gr.Config.NodeCounts, gr.Config.EdgeProbs,
		func(r GridRecord) (int, float64) { return r.Nodes, r.Prob }, pred)
}

// GridProportions aggregates records per (rhobeg, layers) — the layout
// of Fig. 3(c).
func (gr *GridResult) GridProportions(w graph.Weighting, pred func(GridRecord) bool) [][]float64 {
	return proportions(gr, w, gr.Config.Rhobegs, gr.Config.Layers,
		func(r GridRecord) (float64, int) { return r.Rhobeg, r.Layers }, pred)
}

// proportions is the one aggregation behind every Fig. 3 panel and
// Table 1: over the records of weighting w, the share satisfying pred
// in each (row, column) cell, where cell reads a record's row and
// column keys. A cell without records reads 0.
func proportions[R, C comparable](gr *GridResult, w graph.Weighting, rows []R, cols []C,
	cell func(GridRecord) (R, C), pred func(GridRecord) bool) [][]float64 {
	rIdx, cIdx := indexOf(rows), indexOf(cols)
	out := make([][]float64, len(rows))
	counts := make([][]int, len(rows))
	for i := range out {
		out[i] = make([]float64, len(cols))
		counts[i] = make([]int, len(cols))
	}
	for _, r := range gr.Records {
		if r.Weighting != w {
			continue
		}
		rk, ck := cell(r)
		i, j := rIdx[rk], cIdx[ck]
		counts[i][j]++
		if pred(r) {
			out[i][j]++
		}
	}
	for i := range out {
		for j, c := range counts[i] {
			if c > 0 {
				out[i][j] /= float64(c)
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
	rows, cols := labels("%d", cfg.NodeCounts), labels("%.1f", cfg.EdgeProbs)
	rrows, lcols := labels("%.1f", cfg.Rhobegs), labels("%d", cfg.Layers)
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

// labels formats each axis value with format: the row and column
// labels of a rendered panel.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// indexOf maps each axis value to its position.
func indexOf[T comparable](xs []T) map[T]int {
	m := make(map[T]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}
