//go:build !race

package opt

// raceDetector is true in a test binary built with -race.
const raceDetector = false
