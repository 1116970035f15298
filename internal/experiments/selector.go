package experiments

import (
	"fmt"

	"qaoa2/internal/mlselect"
	"qaoa2/internal/rng"
)

// SelectorDataset converts grid-search records into labeled training
// samples for the QAOA-vs-GW selector (label 1 when QAOA beat GW on
// that instance/parameterization) — the "knowledge base" use of Fig. 3
// the paper describes, pointed at the Moussa et al. ML direction.
func SelectorDataset(records []GridRecord) []mlselect.Sample {
	// Append the QAOA parameterization to the graph features so the
	// selector can also rank (layers, rhobeg) choices.
	return dataset(records, func(r GridRecord) []float64 {
		return append(mlselect.Features(r.Graph), float64(r.Layers)/8.0, r.Rhobeg)
	})
}

// TrainSelector shuffles the records deterministically, splits 80/20,
// trains the logistic selector and returns the model with its held-out
// accuracy. (Without the shuffle the hold-out set would be the sweep's
// tail — a single weighting class — and the accuracy meaningless.)
func TrainSelector(records []GridRecord, seed uint64) (*mlselect.Model, float64, error) {
	return trainOn(SelectorDataset(records), seed)
}

// SolverSelectorDataset converts grid-search records into samples over
// GRAPH FEATURES ONLY — the form internal/solver's ml-adaptive gate
// consumes at dispatch time, when no (layers, rhobeg) choice has been
// made yet. Records for the same instance collapse onto identical
// feature rows with possibly different labels; the logistic fit
// absorbs that as the instance's empirical QAOA win rate.
func SolverSelectorDataset(records []GridRecord) []mlselect.Sample {
	return dataset(records, func(r GridRecord) []float64 { return mlselect.Features(r.Graph) })
}

// dataset turns each record that kept its graph into a sample over the
// features it reads, labeled 1 when QAOA beat GW and 0 otherwise.
func dataset(records []GridRecord, features func(GridRecord) []float64) []mlselect.Sample {
	out := make([]mlselect.Sample, 0, len(records))
	for _, r := range records {
		if r.Graph == nil {
			continue
		}
		y := 0
		if r.QAOAWins() {
			y = 1
		}
		out = append(out, mlselect.Sample{X: features(r), Y: y})
	}
	return out
}

// TrainSolverSelector is TrainSelector over the graph-features-only
// dataset: the model that gates internal/solver's "ml-adaptive"
// dispatch (solver.DefaultSelector ships a pretrained copy; regenerate
// it with `gridsearch -selector`).
func TrainSolverSelector(records []GridRecord, seed uint64) (*mlselect.Model, float64, error) {
	return trainOn(SolverSelectorDataset(records), seed)
}

// trainOn shuffles, splits 80/20, trains, and scores.
func trainOn(samples []mlselect.Sample, seed uint64) (*mlselect.Model, float64, error) {
	if len(samples) < 10 {
		return nil, 0, fmt.Errorf("experiments: too few samples (%d) to train the selector", len(samples))
	}
	r := rng.New(seed ^ 0x7e1ec7)
	r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	split := len(samples) * 4 / 5
	train, test := samples[:split], samples[split:]
	model, err := mlselect.Train(train, mlselect.TrainOptions{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	return model, mlselect.Accuracy(model, test), nil
}
