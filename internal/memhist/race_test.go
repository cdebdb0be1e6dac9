//go:build race

package memhist

func init() { raceEnabled = true }
