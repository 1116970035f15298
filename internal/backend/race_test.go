//go:build race

package backend

// raceDetector is true in a test binary built with -race.
const raceDetector = true
