//go:build race

package tournament

func init() { raceEnabled = true }
