//go:build race

package steady_test

// raceSlowdown stretches wall-clock bounds under the race detector,
// which runs the LP builders and the engine five to ten times slower.
const raceSlowdown = 10
