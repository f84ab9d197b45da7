package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func br(name string, ns float64, allocs int64) benchResult {
	return benchResult{Name: name, Iterations: 1000, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestClassifyNoiseGate(t *testing.T) {
	const threshold, floor = 0.5, 50.0
	cases := []struct {
		name     string
		old, new benchResult
		want     compareVerdict
	}{
		// 60ns -> 80ns is +33% and +20ns: under both gates.
		{"small-drift", br("a", 60, 0), br("a", 80, 0), verdictOK},
		// 60ns -> 100ns is +67% but only +40ns: percent-only trip is
		// jitter on a fast benchmark, not a regression.
		{"fast-bench-jitter", br("a", 60, 0), br("a", 100, 0), verdictSlower},
		// 1000ns -> 1060ns is +60ns but only +6%: absolute-only trip on
		// a slow benchmark is noise too.
		{"slow-bench-jitter", br("a", 1000, 0), br("a", 1060, 0), verdictSlower},
		// 100ns -> 200ns trips both: real regression.
		{"real-regression", br("a", 100, 0), br("a", 200, 0), verdictTimeRegression},
		// Allocation counts are deterministic — any increase fails, even
		// when the time is unchanged.
		{"alloc-regression", br("a", 100, 0), br("a", 100, 1), verdictAllocRegression},
		{"alloc-drop-ok", br("a", 100, 3), br("a", 100, 1), verdictOK},
		// 400ns -> 100ns clears both gates in the other direction.
		{"improved", br("a", 400, 0), br("a", 100, 0), verdictImproved},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := classify(&c.old, &c.new, threshold, floor)
			if got != c.want {
				t.Fatalf("classify(%v, %v) = %d, want %d", c.old, c.new, got, c.want)
			}
		})
	}
}

func TestCompareResultsMatching(t *testing.T) {
	old := []benchResult{br("shared", 100, 0), br("removed", 50, 0)}
	new := []benchResult{br("shared", 120, 0), br("added", 70, 1)}
	rows := compareResults(old, new, 0.5, 50, nil)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byName := map[string]compareRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["shared"]; r.Old == nil || r.New == nil || r.Verdict != verdictOK {
		t.Fatalf("shared row = %+v", r)
	}
	if r := byName["removed"]; r.New != nil {
		t.Fatalf("removed row should have no new result: %+v", r)
	}
	if r := byName["added"]; r.Old != nil {
		t.Fatalf("added row should have no old result: %+v", r)
	}
}

func TestCompareOverrides(t *testing.T) {
	old := []benchResult{br("decode", 1000, 0), br("other", 100, 0)}
	// decode grows 20% in time — under the global gate — but allocates
	// once per op against a hard 0 allocs/op ceiling.
	new := []benchResult{br("decode", 1200, 1), br("other", 120, 0), br("fresh", 50, 2)}
	zero := int64(0)
	rules := map[string]gateRule{
		"decode": {MaxAllocsPerOp: &zero},
		"fresh":  {MaxAllocsPerOp: &zero},
	}
	rows := compareResults(old, new, 0.5, 50, rules)
	byName := map[string]compareRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if v := byName["decode"].Verdict; v != verdictAllocRegression {
		t.Fatalf("decode over its max_allocs_per_op ceiling: verdict %d, want %d", v, verdictAllocRegression)
	}
	if v := byName["other"].Verdict; v != verdictOK {
		t.Fatalf("other (no override) verdict %d, want %d", v, verdictOK)
	}
	// The ceiling judges a bench with no baseline too.
	if v := byName["fresh"].Verdict; v != verdictAllocRegression {
		t.Fatalf("new bench over its ceiling: verdict %d, want %d", v, verdictAllocRegression)
	}
	// A per-benchmark threshold can also loosen the gate: +100% on
	// decode with threshold 2.0 stays advisory ("slower", absolute floor
	// only) instead of failing.
	th := 2.0
	rows = compareResults(old, []benchResult{br("decode", 2000, 0), br("other", 120, 0)}, 0.5, 50,
		map[string]gateRule{"decode": {Threshold: &th}})
	for _, r := range rows {
		byName[r.Name] = r
	}
	if v := byName["decode"].Verdict; v != verdictSlower {
		t.Fatalf("loosened decode verdict %d, want %d", v, verdictSlower)
	}
}

func TestLoadThresholds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(path, []byte(`{"decode": {"max_allocs_per_op": 0, "threshold": 0.25}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err := loadThresholds(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rules["decode"]
	if !ok || r.MaxAllocsPerOp == nil || *r.MaxAllocsPerOp != 0 || r.Threshold == nil || *r.Threshold != 0.25 || r.FloorNs != nil {
		t.Fatalf("rules[decode] = %+v", r)
	}
	if _, err := loadThresholds(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing thresholds file should error")
	}
}

func writeBenchFixture(t *testing.T, name, schema string, results []benchResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f := benchFile{Schema: schema, Results: results}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompareEndToEnd(t *testing.T) {
	old := writeBenchFixture(t, "old.json", "cescbench/v1", []benchResult{
		br("steady", 100, 0), br("hot", 100, 0),
	})
	// No regression: steady drifts within the gate.
	good := writeBenchFixture(t, "good.json", "cescbench/v1", []benchResult{
		br("steady", 130, 0), br("hot", 90, 0),
	})
	n, err := runCompare(old, good, 0.5, 50, nil)
	if err != nil || n != 0 {
		t.Fatalf("good compare: regressions=%d err=%v", n, err)
	}
	// Regression: hot doubles and grows allocs.
	bad := writeBenchFixture(t, "bad.json", "cescbench/v1", []benchResult{
		br("steady", 100, 0), br("hot", 400, 2),
	})
	n, err = runCompare(old, bad, 0.5, 50, nil)
	if err != nil || n != 1 {
		t.Fatalf("bad compare: regressions=%d err=%v", n, err)
	}
	// Schema mismatch is an error, not a silent pass.
	mismatched := writeBenchFixture(t, "obs.json", "cescbench/obs/v1", []benchResult{br("steady", 100, 0)})
	if _, err := runCompare(old, mismatched, 0.5, 50, nil); err == nil {
		t.Fatal("schema mismatch should error")
	}
}
