//go:build race

package perfreg

func init() { raceEnabled = true }
