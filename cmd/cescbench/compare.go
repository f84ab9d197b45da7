package main

// Benchmark comparison: `cescbench -compare old.json new.json` diffs two
// machine-readable summaries (as written by -json / -obs-json) and exits
// nonzero if the new run regressed. Micro-benchmarks are noisy — a naive
// "slower than before" gate flakes constantly on shared CI runners — so
// the verdict is deliberately conservative:
//
//   - time regression: ns/op grew by more than -threshold (relative,
//     default 50%) AND by more than -floor (absolute, default 50ns).
//     Both must trip; the floor keeps sub-100ns benchmarks from failing
//     on scheduler jitter that is large in percent but trivial in cost.
//   - alloc regression: allocs/op increased at all. Allocation counts
//     are deterministic, so any increase is a real change — this is the
//     gate that protects the "0 allocs/op on the packed hot path"
//     invariant.
//
// Benchmarks present in only one file are reported but never fail the
// gate (suites grow across PRs).

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchFile is the on-disk shape shared by -json and -obs-json outputs.
type benchFile struct {
	Schema  string        `json:"schema"`
	Results []benchResult `json:"results"`
}

// gateRule is one per-benchmark override of the global compare gate,
// loaded from the -thresholds file (a JSON map of benchmark name to
// rule). A nil field inherits the global flag, so a rule can change
// just one axis — e.g. the I/O-bound benches get a wider relative band
// while the 0-alloc hot paths carry a hard allocs/op ceiling.
type gateRule struct {
	// Threshold is the relative ns/op growth allowed (0.5 = +50%).
	Threshold *float64 `json:"threshold,omitempty"`
	// FloorNs is the absolute ns/op growth a time regression must also
	// exceed.
	FloorNs *float64 `json:"floor_ns,omitempty"`
	// MaxAllocsPerOp, when set, fails the gate outright if the new run
	// allocates more than this per op. Unlike the relative alloc gate it
	// applies to benchmarks with no baseline too, so a freshly added
	// bench can pin "disabled tracing is 0 allocs/op" from its first run.
	MaxAllocsPerOp *int64 `json:"max_allocs_per_op,omitempty"`
}

// loadThresholds reads a -thresholds override file.
func loadThresholds(path string) (map[string]gateRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]gateRule
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// compareVerdict classifies one matched benchmark pair.
type compareVerdict int

const (
	verdictOK compareVerdict = iota
	verdictImproved
	verdictSlower // over relative threshold OR absolute floor, but not both
	verdictTimeRegression
	verdictAllocRegression
)

// compareRow is the diff of one benchmark name across the two files.
type compareRow struct {
	Name     string
	Old, New *benchResult
	Verdict  compareVerdict
}

// compareResults matches benchmarks by name and classifies each pair.
// threshold is the relative ns/op growth allowed (0.5 = +50%); floorNs
// is the absolute ns/op growth a time regression must also exceed.
// overrides (may be nil) substitutes per-benchmark gate rules by name.
func compareResults(old, new []benchResult, threshold, floorNs float64, overrides map[string]gateRule) []compareRow {
	oldByName := make(map[string]*benchResult, len(old))
	for i := range old {
		oldByName[old[i].Name] = &old[i]
	}
	newByName := make(map[string]*benchResult, len(new))
	for i := range new {
		newByName[new[i].Name] = &new[i]
	}
	var rows []compareRow
	for i := range old {
		o := &old[i]
		n, ok := newByName[o.Name]
		if !ok {
			rows = append(rows, compareRow{Name: o.Name, Old: o})
			continue
		}
		th, fl := threshold, floorNs
		var maxAllocs *int64
		if r, ok := overrides[o.Name]; ok {
			if r.Threshold != nil {
				th = *r.Threshold
			}
			if r.FloorNs != nil {
				fl = *r.FloorNs
			}
			maxAllocs = r.MaxAllocsPerOp
		}
		v := classify(o, n, th, fl)
		if maxAllocs != nil && n.AllocsPerOp > *maxAllocs {
			v = verdictAllocRegression
		}
		rows = append(rows, compareRow{Name: o.Name, Old: o, New: n, Verdict: v})
	}
	for i := range new {
		n := &new[i]
		if _, ok := oldByName[n.Name]; ok {
			continue
		}
		// No baseline — only the allocs/op ceiling can judge a new bench.
		v := verdictOK
		if r, ok := overrides[n.Name]; ok && r.MaxAllocsPerOp != nil && n.AllocsPerOp > *r.MaxAllocsPerOp {
			v = verdictAllocRegression
		}
		rows = append(rows, compareRow{Name: n.Name, New: n, Verdict: v})
	}
	return rows
}

func classify(o, n *benchResult, threshold, floorNs float64) compareVerdict {
	if n.AllocsPerOp > o.AllocsPerOp {
		return verdictAllocRegression
	}
	grew := n.NsPerOp - o.NsPerOp
	overRel := n.NsPerOp > o.NsPerOp*(1+threshold)
	overAbs := grew > floorNs
	switch {
	case overRel && overAbs:
		return verdictTimeRegression
	case overRel || overAbs:
		return verdictSlower
	case n.NsPerOp < o.NsPerOp*(1-threshold) && o.NsPerOp-n.NsPerOp > floorNs:
		return verdictImproved
	default:
		return verdictOK
	}
}

func loadBenchFile(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return f, fmt.Errorf("%s: no benchmark results", path)
	}
	return f, nil
}

// runCompare is the -compare entry point. Returns the number of
// regressions (the caller exits nonzero if > 0).
func runCompare(oldPath, newPath string, threshold, floorNs float64, overrides map[string]gateRule) (int, error) {
	oldFile, err := loadBenchFile(oldPath)
	if err != nil {
		return 0, err
	}
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return 0, err
	}
	if oldFile.Schema != newFile.Schema {
		return 0, fmt.Errorf("schema mismatch: %s has %q, %s has %q (compare like with like)",
			oldPath, oldFile.Schema, newPath, newFile.Schema)
	}
	rows := compareResults(oldFile.Results, newFile.Results, threshold, floorNs, overrides)

	fmt.Printf("# cescbench compare — %s vs %s (threshold +%.0f%%, floor %.0fns)\n\n",
		oldPath, newPath, threshold*100, floorNs)
	fmt.Println("| benchmark | old ns/op | new ns/op | Δ | old allocs | new allocs | verdict |")
	fmt.Println("|-----------|-----------|-----------|---|------------|------------|---------|")
	regressions := 0
	for _, r := range rows {
		switch {
		case r.New == nil:
			fmt.Printf("| %s | %.1f | — | — | %d | — | removed |\n", r.Name, r.Old.NsPerOp, r.Old.AllocsPerOp)
			continue
		case r.Old == nil:
			verdict := "new"
			if r.Verdict == verdictAllocRegression {
				verdict = "ALLOC REGRESSION (over ceiling)"
				regressions++
			}
			fmt.Printf("| %s | — | %.1f | — | — | %d | %s |\n", r.Name, r.New.NsPerOp, r.New.AllocsPerOp, verdict)
			continue
		}
		delta := fmt.Sprintf("%+.1f%%", 100*(r.New.NsPerOp-r.Old.NsPerOp)/r.Old.NsPerOp)
		verdict := "ok"
		switch r.Verdict {
		case verdictImproved:
			verdict = "improved"
		case verdictSlower:
			verdict = "slower (within gate)"
		case verdictTimeRegression:
			verdict = "TIME REGRESSION"
			regressions++
		case verdictAllocRegression:
			verdict = "ALLOC REGRESSION"
			regressions++
		}
		fmt.Printf("| %s | %.1f | %.1f | %s | %d | %d | %s |\n",
			r.Name, r.Old.NsPerOp, r.New.NsPerOp, delta, r.Old.AllocsPerOp, r.New.AllocsPerOp, verdict)
	}
	fmt.Println()
	if regressions > 0 {
		fmt.Printf("FAIL: %d regression(s)\n", regressions)
	} else {
		fmt.Println("PASS: no regressions")
	}
	return regressions, nil
}
