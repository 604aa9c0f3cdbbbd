//go:build race

package proto

// raceEnabled relaxes allocation budgets: the race detector's
// instrumentation moves some stack scratch space to the heap.
const raceEnabled = true
