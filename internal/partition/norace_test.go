//go:build !race

package partition

// raceDetector is true in a test binary built with -race.
const raceDetector = false
