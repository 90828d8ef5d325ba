//go:build !race

package steady_test

const raceSlowdown = 1
