//go:build race

package main

// raceEnabled marks a -race build, where sync.Pool drops items at random
// and pooled code such as json.Valid allocates.
const raceEnabled = true
