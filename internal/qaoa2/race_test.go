//go:build race

package qaoa2

// raceDetector is true in a test binary built with -race.
const raceDetector = true
