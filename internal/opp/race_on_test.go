//go:build race

package opp

// raceEnabled marks race-detector builds, whose sync.Pool drops a random
// share of what is put back, so a pooled state is sometimes rebuilt.
const raceEnabled = true
