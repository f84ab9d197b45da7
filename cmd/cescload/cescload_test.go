package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{19, "none"}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"},
	} {
		got := "none"
		if q := tailPercentile(c.n); q > 0 {
			got = percentileName(q)
		}
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %s, want %s", c.n, got, c.want)
		}
	}
	var samples []time.Duration
	for i := 1; i <= 1000; i++ {
		samples = append(samples, time.Duration(1001-i)*time.Millisecond)
	}
	if got := percentile(samples, 0.99); got != 990*time.Millisecond {
		t.Errorf("p99 of 1..1000 ms = %s, want 990ms (ten samples beyond it)", got)
	}
	if got := percentile(samples, 0.5); got != 500*time.Millisecond {
		t.Errorf("p50 of 1..1000 ms = %s, want 500ms", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(values, n=4).
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4, 1.7, 6.3}, 1.7, 6.3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.values)
		if abs(q1-c.q1) > 1e-12 || abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// A server that stalls once must show the stall in the latency of every
// open-loop request that came due while it lasted, because each request
// is timed from its due time rather than from when it could be sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	hc := ts.Client()
	send := func(time.Time) error {
		resp, err := hc.Get(ts.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	const interval = 10 * time.Millisecond
	start := time.Now()
	lat, late, failed := openLoop(context.Background(), start, interval, start.Add(12*interval), send)
	if failed != 0 || len(lat) != 12 || len(late) != 12 {
		t.Fatalf("got %d latencies, %d lateness samples, %d failures; want 12, 12, 0", len(lat), len(late), failed)
	}
	for j := 1; j < 12; j++ {
		due := time.Duration(j) * interval
		if due >= stall {
			break
		}
		// Slack for timer and scheduling jitter on a busy machine.
		if want := stall - due - 5*time.Millisecond; lat[j].lat < want || late[j] < want {
			t.Errorf("request %d (due at %s): latency %s, late %s; want both >= %s", j, due, lat[j].lat, late[j], want)
		}
	}
}

func TestParseProm(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseProm(string(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		stageSum("decode"), stageCount("decode"), stageSum("step"), stageCount("step"),
		stageSum("wal_append"), "cescd_ticks_total", "cescd_batches_total",
		"cescd_lane_group_ticks_total", "cescd_wal_syncs_total", "cescd_cluster_proxied_total",
	} {
		if _, ok := snap[series]; !ok {
			t.Errorf("series %s missing from the captured exposition", series)
		}
	}
	if snap[stageCount("decode")] != snap["cescd_batches_total"] {
		t.Errorf("decode count %g, batches %g: every ingested batch is decoded once",
			snap[stageCount("decode")], snap["cescd_batches_total"])
	}
	if snap[stageSum("decode")] <= 0 {
		t.Errorf("decode sum %g, want > 0", snap[stageSum("decode")])
	}
	later := promSnapshot{}
	for k, v := range snap {
		later[k] = v
	}
	later[stageSum("decode")] += 0.25
	if d := delta(fleetScrape{snap, snap}, fleetScrape{later, snap}, stageSum("decode")); d != 0.25 {
		t.Errorf("delta over two nodes = %g, want 0.25", d)
	}
	if _, err := parseProm("cescd_ticks_total twelve\n"); err == nil {
		t.Error("a non-numeric sample value parsed")
	}
}

// The memoised reference must equal the interpreted engine stepped over
// the whole stream tick by tick, including charts whose causality arrows
// carry scoreboard state across batch boundaries.
func TestReferenceMatchesDirectStepping(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("program_wal")
	a, _ := workloadByName("assert_diag")
	w.mixes = append(w.mixes, a.mixes...)
	mons, err := loadMonitors(root, w.specFiles())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range w.mixes {
		pool, err := makePool(m, 64, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(mons[m.spec], m.mode, pool)
		const off, n = 5, 3 * poolBatches
		eng := monitor.NewEngine(mons[m.spec], nil, ref.mode)
		for b := 0; b < n; b++ {
			for _, tk := range pool[(off+b)%poolBatches] {
				eng.Step(tk.ToState())
			}
		}
		st := eng.Stats()
		want := verdict{st.Steps, st.Accepts, st.Violations}
		if got := ref.expect(off, n); got != want {
			t.Errorf("%s (%s): memoised reference %+v, direct stepping %+v", m.spec, m.mode, got, want)
		}
		if want.Accepts == 0 && want.Violations == 0 {
			t.Logf("%s (%s): no verdicts in %d ticks", m.spec, m.mode, want.Steps)
		}
	}
}

// The smoke test runs every workload through the built binary for 1.5 s
// per phase and requires a correct, failure-free run that reports every
// end-to-end metric. Shorter phases make the lane_stream gate flaky: with
// two connections a lane group forms only when both in-flight batches
// reach a shard together, for about one batch in a hundred.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cescd processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cescload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cescload: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-seconds", "3")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cescload: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v, ok := res.Metrics[w.name+"."+m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s.%s = %+v, want a positive value in %s", w.name, m.name, v, m.unit)
			}
		}
	}
}

// The gauge's kernel must not allocate: an allocating kernel would be
// charged for garbage collection the code under test causes, and scaling
// by it would hide that code's cost.
func TestGaugeKernelAllocatesNothing(t *testing.T) {
	if !gaugeKernel() {
		t.Fatal("the gauge's document is not valid JSON")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so the kernel's pooled scanner allocates")
	}
	if n := testing.AllocsPerRun(100, func() { gaugeKernel() }); n != 0 {
		t.Errorf("gauge kernel allocates %g times per pass, want 0", n)
	}
}

func TestGaugeSpeed(t *testing.T) {
	t0 := time.Now()
	g := &speedGauge{samples: []gaugeSample{
		{t0, gaugeRefCost}, {t0.Add(2 * time.Second), 2 * gaugeRefCost}, {t0.Add(4 * time.Second), 2 * gaugeRefCost},
	}}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 1500 * time.Millisecond, 1},
		{1900 * time.Millisecond, 5 * time.Second, 0.5},
		{2010 * time.Millisecond, 2020 * time.Millisecond, 0.5}, // widened to gaugeSpan around 2s
	} {
		if got := g.speed(t0.Add(c.from), t0.Add(c.to)); got != c.want {
			t.Errorf("speed over [%s, %s) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
}
