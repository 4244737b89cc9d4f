//go:build race

package solarcore_test

func init() { raceEnabled = true }
