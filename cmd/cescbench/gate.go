package main

// Allocation gate: `cescbench -json out.json -thresholds
// PERF_THRESHOLDS.json` checks the run it just made against per-row
// allocs/op ceilings. Allocation counts are deterministic and do not
// depend on the machine, so the gate needs no baseline recorded
// elsewhere; wall time is judged end to end by cmd/cescload, in pairs
// on one machine. The run fails when a row allocates more than its
// ceiling, or when a ceiling names no row of the suite (a renamed or
// deleted bench would otherwise drop its ceiling silently). Rows
// without a ceiling are listed and never fail.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// gateRule is one benchmark's entry in the -thresholds file, a JSON map
// of benchmark name to rule.
type gateRule struct {
	// MaxAllocsPerOp fails the gate if the run allocates more than this
	// per op.
	MaxAllocsPerOp *int64 `json:"max_allocs_per_op"`
}

// loadThresholds reads a -thresholds file. A rule with an unknown key
// (such as a wall-time "threshold") or without a ceiling is an error,
// so no rule is silently ignored.
func loadThresholds(path string) (map[string]gateRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m map[string]gateRule
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, r := range m {
		if r.MaxAllocsPerOp == nil {
			return nil, fmt.Errorf("%s: %s: rule sets no max_allocs_per_op", path, name)
		}
	}
	return m, nil
}

// checkCeilings prints every row of the run with its ceiling and
// verdict to w, then every ceiling that names no row, and returns the
// number of failures.
func checkCeilings(w io.Writer, results []benchResult, rules map[string]gateRule) int {
	fmt.Fprintln(w, "| benchmark | ns/op | allocs/op | ceiling | verdict |")
	fmt.Fprintln(w, "|-----------|-------|-----------|---------|---------|")
	failures := 0
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		seen[r.Name] = true
		ceiling, verdict := "—", "no ceiling"
		if rule, ok := rules[r.Name]; ok {
			ceiling, verdict = fmt.Sprint(*rule.MaxAllocsPerOp), "ok"
			if r.AllocsPerOp > *rule.MaxAllocsPerOp {
				verdict = "OVER CEILING"
				failures++
			}
		}
		fmt.Fprintf(w, "| %s | %.1f | %d | %s | %s |\n", r.Name, r.NsPerOp, r.AllocsPerOp, ceiling, verdict)
	}
	var missing []string
	for name := range rules {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "| %s | — | — | %d | NO SUCH BENCHMARK |\n", name, *rules[name].MaxAllocsPerOp)
		failures++
	}
	fmt.Fprintln(w)
	if failures > 0 {
		fmt.Fprintf(w, "FAIL: %d row(s) over or missing their allocs/op ceiling\n", failures)
	} else {
		fmt.Fprintln(w, "PASS: every ceiling holds")
	}
	return failures
}
