package server

import (
	"encoding/json"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/synth"
)

// TestDiagnosticsJSONMatchesMapPath: the endpoints render packed window
// inputs straight from their words through the session vocabulary. The
// bodies must equal the map path — diagnosticJSON over the engine's
// rendered Diagnostics() — for vocabulary-bound and interpreted
// engines, across a wrapped report ring and a snapshot restore whose
// reports and ring slots come back as maps.
func TestDiagnosticsJSONMatchesMapPath(t *testing.T) {
	cases := []struct {
		chart   chart.Chart
		traffic []event.State
	}{
		{ocp.SimpleReadChart(), ocp.NewModel(ocp.Config{Gap: 1, Seed: 6, FaultRate: 0.2}).GenerateTrace(1500)},
		{amba.TransactionChart(), amba.NewModel(amba.Config{Gap: 1, Seed: 8, FaultRate: 0.2}).GenerateTrace(3000)},
	}
	for _, tc := range cases {
		m, err := synth.Synthesize(tc.chart, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := monitor.CompileProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		v := event.NewVocabulary()
		v.MustDeclare("unrelated", event.KindEvent)
		if err := v.DeclareSupport(p.Support()); err != nil {
			t.Fatal(err)
		}
		newPacked := func() *monitor.Engine {
			e, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
			if err != nil {
				t.Fatal(err)
			}
			e.EnableDiagnostics(defaultDiagDepth)
			return e
		}
		newInterp := func() *monitor.Engine {
			e := monitor.NewEngine(m, nil, monitor.ModeAssert)
			e.EnableDiagnostics(defaultDiagDepth)
			return e
		}
		packed, interp := newPacked(), newInterp()
		check := func(when string) {
			for name, e := range map[string]*monitor.Engine{"packed": packed, "interpreted": interp} {
				var want []DiagnosticJSON
				for _, d := range e.Diagnostics() {
					want = append(want, diagnosticJSON(d))
				}
				got, _ := json.Marshal(diagnosticsJSON(e))
				if w, _ := json.Marshal(want); string(got) != string(w) {
					t.Fatalf("%s %s %s: endpoint body\n got %s\nwant %s", m.Name, name, when, got, w)
				}
			}
		}
		for tick, s := range tc.traffic {
			in := v.Pack(s)
			packed.StepPacked(in)
			interp.Step(v.UnpackState(in))
			if tick == len(tc.traffic)/2 {
				check("before restore")
				for _, e := range []**monitor.Engine{&packed, &interp} {
					fresh := newInterp()
					if (*e).Programmed() {
						fresh = newPacked()
					}
					if err := fresh.Restore((*e).Snapshot()); err != nil {
						t.Fatal(err)
					}
					fresh.Scoreboard().Restore((*e).Scoreboard().Snapshot())
					*e = fresh
				}
				check("after restore")
			}
		}
		if n := packed.Stats().Violations; n <= 64 {
			t.Fatalf("%s: %d violations, want the ring wrapped on both sides of the restore", m.Name, n)
		}
		check("at the end")
	}
}
