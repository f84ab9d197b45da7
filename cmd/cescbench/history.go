package main

// Versioned benchmark history: with -history PATH, every -json run
// appends one self-describing JSON line holding its result rows to PATH
// (conventionally the committed BENCH_HISTORY.jsonl at the repo root).
// The file is append-only, so the perf trajectory across PRs is
// greppable and plottable without reconstructing it from git history.

import (
	"encoding/json"
	"os"
	"time"
)

// historySchema versions the line format itself.
const historySchema = "cescbench/history/v1"

// historyEntry is one line of the history file.
type historyEntry struct {
	Schema string `json:"schema"`
	Time   string `json:"time"`
	// Kind is the run flavor: always "json" now. Older lines also hold
	// the retired per-part suites and compare runs.
	Kind string `json:"kind"`
	// BenchSchema is the schema of the summary (e.g. "cescbench/v2"),
	// so mixed histories stay separable.
	BenchSchema string `json:"bench_schema,omitempty"`
	// Files holds the summary path the run wrote.
	Files []string `json:"files,omitempty"`
	// Results are the run's rows.
	Results []benchResult `json:"results,omitempty"`
}

// appendHistory appends one entry as a JSON line; a missing file is
// created, an existing one is never rewritten.
func appendHistory(path string, e historyEntry) error {
	e.Schema = historySchema
	e.Time = time.Now().UTC().Format(time.RFC3339)
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(data, '\n'))
	return err
}
