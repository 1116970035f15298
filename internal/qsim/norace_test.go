//go:build !race

package qsim

// raceDetector is true in a test binary built with -race, which runs
// the engine an order of magnitude slower.
const raceDetector = false
