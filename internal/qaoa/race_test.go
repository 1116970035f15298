//go:build race

package qaoa

// raceDetector is true in a test binary built with -race.
const raceDetector = true
