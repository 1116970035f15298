//go:build !race

package runtime

// raceDetector is true in a test binary built with -race.
const raceDetector = false
