//go:build !race

package opp

const raceEnabled = false
