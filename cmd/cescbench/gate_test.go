package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ceiling(n int64) gateRule { return gateRule{MaxAllocsPerOp: &n} }

func TestCheckCeilings(t *testing.T) {
	run := []benchResult{
		{Name: "decode", NsPerOp: 1200, AllocsPerOp: 0},
		{Name: "ingest", NsPerOp: 900, AllocsPerOp: 7},
		{Name: "mine", NsPerOp: 5e6, AllocsPerOp: 145866},
	}
	cases := []struct {
		name     string
		rules    map[string]gateRule
		failures int
		// want lists substrings the report must contain.
		want []string
	}{
		{"at-ceiling", map[string]gateRule{"decode": ceiling(0), "ingest": ceiling(7)}, 0,
			[]string{"| decode | 1200.0 | 0 | 0 | ok |", "PASS"}},
		{"over-ceiling", map[string]gateRule{"decode": ceiling(0), "ingest": ceiling(6)}, 1,
			[]string{"| ingest | 900.0 | 7 | 6 | OVER CEILING |", "FAIL: 1 "}},
		{"ceiling-names-no-row", map[string]gateRule{"decode": ceiling(0), "renamed": ceiling(0)}, 1,
			[]string{"| renamed | — | — | 0 | NO SUCH BENCHMARK |", "FAIL: 1 "}},
		// A row without a ceiling (the mine rows) is listed and passes,
		// whatever it allocates.
		{"row-without-ceiling", map[string]gateRule{}, 0,
			[]string{"| mine | 5000000.0 | 145866 | — | no ceiling |", "PASS"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := checkCeilings(&out, run, c.rules); got != c.failures {
				t.Fatalf("failures = %d, want %d\n%s", got, c.failures, out.String())
			}
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Fatalf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}

func TestLoadThresholds(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rules, err := loadThresholds(write("ok.json", `{"decode": {"max_allocs_per_op": 0}, "synth": {"max_allocs_per_op": 526}}`))
	if err != nil {
		t.Fatal(err)
	}
	if r := rules["decode"]; r.MaxAllocsPerOp == nil || *r.MaxAllocsPerOp != 0 {
		t.Fatalf("rules[decode] = %+v", r)
	}
	if r := rules["synth"]; r.MaxAllocsPerOp == nil || *r.MaxAllocsPerOp != 526 {
		t.Fatalf("rules[synth] = %+v", r)
	}
	for name, body := range map[string]string{
		// The retired wall-time keys must not load as silently ignored.
		"threshold.json":  `{"decode": {"max_allocs_per_op": 0, "threshold": 0.75}}`,
		"ns-ceiling.json": `{"wal": {"max_ns_per_op": 500}}`,
		"empty.json":      `{"decode": {}}`,
	} {
		if _, err := loadThresholds(write(name, body)); err == nil {
			t.Errorf("%s: loaded %s, want an error", name, body)
		}
	}
	if _, err := loadThresholds(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing thresholds file should error")
	}
}

// TestThresholdsNameSuiteRows holds the committed PERF_THRESHOLDS.json
// to the suite: every ceiling must name a row, so renaming a bench
// cannot drop its ceiling. The rows are built, not run.
func TestThresholdsNameSuiteRows(t *testing.T) {
	rules, err := loadThresholds(filepath.Join("..", "..", "PERF_THRESHOLDS.json"))
	if err != nil {
		t.Fatal(err)
	}
	benches, err := suite()
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool, len(benches))
	for _, bm := range benches {
		if rows[bm.name] {
			t.Errorf("suite lists %s twice", bm.name)
		}
		rows[bm.name] = true
	}
	for name := range rules {
		if !rows[name] {
			t.Errorf("PERF_THRESHOLDS.json names %s, which is no suite row", name)
		}
	}
}
