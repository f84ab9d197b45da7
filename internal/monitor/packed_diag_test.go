package monitor_test

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
)

// figCase is one of the paper's protocol figures with model traffic at
// a given fault rate.
type figCase struct {
	name    string
	chart   chart.Chart
	traffic func(faultRate float64) []event.State
}

func figCases() []figCase {
	return []figCase{
		{"Fig6OCP", ocp.SimpleReadChart(), func(f float64) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 6, FaultRate: f}).GenerateTrace(1500)
		}},
		{"Fig7OCPBurst", ocp.BurstReadChart(), func(f float64) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: f, Burst: true}).GenerateTrace(1500)
		}},
		{"Fig8AHB", amba.TransactionChart(), func(f float64) []event.State {
			return amba.NewModel(amba.Config{Gap: 1, Seed: 8, FaultRate: f}).GenerateTrace(1500)
		}},
	}
}

// sessionVocab declares a symbol no monitor reads on either side of p's
// support, as a multi-spec session vocabulary would, so the remap and
// the vocabulary-wide unpack of quoted inputs are both exercised.
func sessionVocab(t *testing.T, p *monitor.Program) *event.Vocabulary {
	t.Helper()
	v := event.NewVocabulary()
	v.MustDeclare("unrelated", event.KindEvent)
	if err := v.DeclareSupport(p.Support()); err != nil {
		t.Fatal(err)
	}
	v.MustDeclare("trailing", event.KindProp)
	return v
}

// TestStepPackedDiagZeroAllocs: with diagnostics armed, a packed step
// that does not violate copies its input words into the ring and
// allocates nothing.
func TestStepPackedDiagZeroAllocs(t *testing.T) {
	for _, tc := range figCases() {
		m, err := synth.Synthesize(tc.chart, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := monitor.CompileProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		v := sessionVocab(t, p)
		e, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableDiagnostics(8)
		// Cut the trace where a run is back in the initial state, so
		// replaying it back to back never abandons a half-seen scenario.
		var ticks []event.Packed
		probe := p.NewEngine(nil, monitor.ModeAssert)
		cut := 0
		for i, s := range tc.traffic(0) {
			ticks = append(ticks, v.Pack(s))
			if probe.Step(s); probe.State() == m.Initial {
				cut = i + 1
			}
		}
		ticks = ticks[:cut]
		run := func() {
			for _, in := range ticks {
				e.StepPacked(in)
			}
		}
		run() // warm the scoreboard's slot storage
		allocs := testing.AllocsPerRun(5, run)
		if st := e.Stats(); st.Violations != 0 || st.Accepts == 0 {
			t.Fatalf("%s: clean traffic gave %+v, want accepts and no violations", tc.name, st)
		}
		if allocs != 0 {
			t.Errorf("%s: StepPacked with diagnostics armed: %v allocs per %d-tick pass, want 0",
				tc.name, allocs, len(ticks))
		}
	}
}

// TestPackedRingSnapshotParity pins the packed diagnostics ring against
// the map ring it replaced. Before the packed ring, StepPacked unpacked
// every input through the vocabulary and kept a clone; the reference
// engine here reproduces exactly that by feeding the same program the
// vocabulary-unpacked state through Step. The DiagSnapshot JSON must be
// identical at every checkpoint, a snapshot restored into a fresh packed
// engine must serialize the same, and both must then keep agreeing on
// stats and diagnostics.
func TestPackedRingSnapshotParity(t *testing.T) {
	for _, tc := range figCases() {
		m, err := synth.Synthesize(tc.chart, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := monitor.CompileProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		v := sessionVocab(t, p)
		newEng := func() *monitor.Engine {
			e, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
			if err != nil {
				t.Fatal(err)
			}
			e.EnableDiagnostics(5)
			return e
		}
		packed, ref := newEng(), newEng()
		var restored *monitor.Engine
		snapJSON := func(e *monitor.Engine) string {
			b, err := json.Marshal(e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		for tick, s := range tc.traffic(0.25) {
			in := v.Pack(s)
			packed.StepPacked(in)
			ref.Step(v.UnpackState(in))
			if restored != nil {
				restored.StepPacked(in)
			}
			if tick%97 != 3 {
				continue
			}
			got, want := snapJSON(packed), snapJSON(ref)
			if got != want {
				t.Fatalf("%s tick %d: packed-ring snapshot\n got %s\nwant %s", tc.name, tick, got, want)
			}
			if restored == nil && tick > 500 {
				var snap monitor.EngineSnapshot
				if err := json.Unmarshal([]byte(got), &snap); err != nil {
					t.Fatal(err)
				}
				restored = newEng()
				if err := restored.Restore(snap); err != nil {
					t.Fatal(err)
				}
				restored.Scoreboard().Restore(packed.Scoreboard().Snapshot())
				if again := snapJSON(restored); again != got {
					t.Fatalf("%s tick %d: restored snapshot\n got %s\nwant %s", tc.name, tick, again, got)
				}
			}
		}
		if restored == nil {
			t.Fatalf("%s: trace too short to restore", tc.name)
		}
		if ref.Stats().Violations == 0 {
			t.Fatalf("%s: faulty traffic raised no violation", tc.name)
		}
		want, _ := json.Marshal(ref.Diagnostics())
		for name, e := range map[string]*monitor.Engine{"packed": packed, "restored": restored} {
			if e.Stats().Violations != ref.Stats().Violations {
				t.Errorf("%s %s: %d violations, want %d", tc.name, name, e.Stats().Violations, ref.Stats().Violations)
			}
			if got, _ := json.Marshal(e.Diagnostics()); string(got) != string(want) {
				t.Errorf("%s %s: diagnostics\n got %s\nwant %s", tc.name, name, got, want)
			}
		}
	}
}

// TestGuardStringKeptMatchesAST: the guard strings a Program decompiles
// once and keeps equal each source guard's String(), on every call, for
// the figure monitors and for generated charts.
func TestGuardStringKeptMatchesAST(t *testing.T) {
	var ms []*monitor.Monitor
	for _, c := range []chart.Chart{parser.MustParseChart(fig5Src), ocp.SimpleReadChart(), ocp.BurstReadChart(),
		amba.TransactionChart(), amba.ReadChart()} {
		m, err := synth.Synthesize(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for seed := int64(0); seed < 150; seed++ {
		if m, err := synth.Synthesize(gen.New(seed, gen.Config{}).Chart(), nil); err == nil {
			ms = append(ms, m)
		}
	}
	if len(ms) < 100 {
		t.Fatalf("only %d monitors synthesized", len(ms))
	}
	for _, m := range ms {
		p, err := monitor.CompileProgram(m)
		if err != nil {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			for s, ts := range m.Trans {
				for i, tr := range ts {
					if got, want := p.GuardString(s, i), tr.Guard.String(); got != want {
						t.Fatalf("%s state %d trans %d pass %d: GuardString %q, want %q", m.Name, s, i, pass, got, want)
					}
				}
			}
		}
	}
}

// TestSharedProgramConcurrentDiagnostics: sessions share one compiled
// Program, so its kept guard strings are first rendered by whichever
// engine violates first, possibly on several shard workers at once.
// Engines stepping concurrently from the same Program must each report
// what a lone engine reports.
func TestSharedProgramConcurrentDiagnostics(t *testing.T) {
	tc := figCases()[2]
	m, err := synth.Synthesize(tc.chart, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ticks []event.Packed
	ref, err := monitor.CompileProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	v := sessionVocab(t, ref)
	for _, s := range tc.traffic(0.25) {
		ticks = append(ticks, v.Pack(s))
	}
	run := func(p *monitor.Program) string {
		e, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
		if err != nil {
			t.Error(err)
			return ""
		}
		e.EnableDiagnostics(8)
		for _, in := range ticks {
			e.StepPacked(in)
		}
		b, _ := json.Marshal(e.Diagnostics())
		return string(b)
	}
	want := run(ref)
	shared, err := monitor.CompileProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(shared)
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Errorf("worker %d diagnostics diverge from a lone engine's", w)
		}
	}
}
