package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fastestMean is the mean of the k smallest samples (all of them when
// there are fewer).
func fastestMean(xs []float64, k int) float64 {
	s := sorted(xs)
	return mean(s[:min(max(k, 1), len(s))])
}

// quantile interpolates linearly between the order statistics (q in
// [0,1]; q=0.5 is the median). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// steadyEstimate is solve_s before host scaling: the mean of the
// fastest quarter of the repetitions, at least 3, taken evenly from
// every timed instance so that a cheap instance cannot stand in for an
// expensive one. instance[i] says which instance reps[i] timed (nil:
// all one). On a shared host the slow tail of a run is the neighbours'
// load, not the program; the fast quarter is what repeats.
func steadyEstimate(reps []float64, instance []int) float64 {
	if len(reps) == 0 {
		return 0
	}
	byInstance := map[int][]float64{}
	for i, r := range reps {
		inst := 0
		if instance != nil {
			inst = instance[i]
		}
		byInstance[inst] = append(byInstance[inst], r)
	}
	quarter := max(len(reps)/4, 3)
	each := (quarter + len(byInstance) - 1) / len(byInstance)
	sum := 0.0
	for _, own := range byInstance {
		sum += fastestMean(own, each)
	}
	return sum / float64(len(byInstance))
}
