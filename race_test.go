//go:build race

package crowdmax_test

func init() { raceEnabled = true }
