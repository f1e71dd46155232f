//go:build race

package trust

func init() { raceEnabled = true }
