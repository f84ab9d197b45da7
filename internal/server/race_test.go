//go:build race

package server

// raceEnabled marks a -race build, where the race detector adds
// allocations, so AllocsPerRun ceilings do not hold.
const raceEnabled = true
