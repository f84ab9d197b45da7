package monitor_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/synth"
)

// eagerDiag is the reference the lazily rendered reports are held to:
// it renders every violation's report in full the moment it fires, from
// its own copy of the input history and the reference engine's
// scoreboard, and keeps the newest 32 — what a retained report has to
// read like whenever it is read.
type eagerDiag struct {
	m       *monitor.Monitor
	sup     *event.Support
	depth   int
	history []event.State
	reports []monitor.Diagnostic
	// violations lists the tick of every violation.
	violations []int
	// short counts reports whose window was shorter than the depth.
	short int
}

func (r *eagerDiag) step(s event.State, res monitor.StepResult, sb *monitor.Scoreboard) {
	r.history = append(r.history, s)
	if res.Outcome != monitor.Violated {
		return
	}
	r.violations = append(r.violations, res.Tick)
	window := r.history[max(0, len(r.history)-r.depth):]
	d := monitor.Diagnostic{
		Monitor:    r.m.Name,
		Tick:       res.Tick,
		FromState:  res.From,
		GridLine:   -1,
		Valuation:  uint64(r.sup.Valuation(s)),
		Input:      s,
		Recent:     append([]event.State(nil), window[:len(window)-1]...),
		Scoreboard: sb.Live(),
	}
	if len(d.Recent) == 0 {
		d.Recent = nil
	}
	if len(window) < r.depth {
		r.short++
	}
	if r.m.Linear {
		d.GridLine = res.From
	}
	for i, tr := range r.m.Trans[res.From] {
		d.Guards = append(d.Guards, tr.Guard.String())
		if i == res.TransIndex {
			d.Guard = tr.Guard.String()
		}
	}
	r.reports = append(r.reports, d)
	if len(r.reports) > 32 {
		r.reports = r.reports[1:]
	}
}

func (r *eagerDiag) json(t *testing.T) string {
	if len(r.reports) == 0 {
		return "null"
	}
	return mustJSON(t, r.reports)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDiagnosticsLazyEqualsEager: Diagnostics() renders raw violation
// records when it is read; it must read exactly like reports rendered
// eagerly at each violation. The packed (vocabulary-bound), table-bound
// and interpreted engines are read at arbitrary ticks — right after a
// violation whose window the next violation shares, too — over faulty
// Fig. 5-8 traffic with more than 32 violations and (at depth 64)
// windows shorter than the depth, and snapshotted and restored mid-way
// through a faulty stretch, so restored reports and restored map slots
// are followed by packed steps.
func TestDiagnosticsLazyEqualsEager(t *testing.T) {
	for _, depth := range []int{5, 64} {
		for _, tc := range faultyFigCases() {
			testLazyEqualsEager(t, tc, depth)
		}
	}
}

func testLazyEqualsEager(t *testing.T, tc faultyCase, depth int) {
	m, err := synth.Synthesize(tc.chart, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := monitor.CompileProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := monitor.CompileTable(m)
	if err != nil {
		t.Fatal(err)
	}
	v := sessionVocab(t, p)
	sup := p.Support()
	type tier struct {
		name string
		new  func() *monitor.Engine
		step func(e *monitor.Engine, s event.State) monitor.StepResult
	}
	tiers := []tier{
		{"interpreted", func() *monitor.Engine { return monitor.NewEngine(m, nil, monitor.ModeAssert) },
			func(e *monitor.Engine, s event.State) monitor.StepResult { return e.Step(s) }},
		{"packed", func() *monitor.Engine {
			e, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, func(e *monitor.Engine, s event.State) monitor.StepResult { return e.StepPacked(v.Pack(s)) }},
		{"table", func() *monitor.Engine {
			e := p.NewEngine(nil, monitor.ModeAssert)
			if err := e.UseTable(tab); err != nil {
				t.Fatal(err)
			}
			return e
		}, func(e *monitor.Engine, s event.State) monitor.StepResult { return e.StepPacked(sup.Pack(s)) }},
	}
	engines := make([]*monitor.Engine, len(tiers))
	for i, tr := range tiers {
		engines[i] = tr.new()
		engines[i].EnableDiagnostics(depth)
	}
	ref := &eagerDiag{m: m, sup: sup, depth: depth}
	r := rand.New(rand.NewSource(15))
	lastViolation, restoredAt := -depth, -1
	var reads []int
	check := func(tick int) {
		want := ref.json(t)
		for i, e := range engines {
			if got := mustJSON(t, e.Diagnostics()); got != want {
				t.Fatalf("%s %s depth %d tick %d: diagnostics\n got %s\nwant %s", tc.name, tiers[i].name, depth, tick, got, want)
			}
		}
		reads = append(reads, tick)
	}
	for tick, raw := range tc.traffic {
		// Every tier sees the input projected onto the session
		// vocabulary, as cescd's decoder delivers it.
		s := v.UnpackState(v.Pack(raw))
		var res monitor.StepResult
		for i, e := range engines {
			got := tiers[i].step(e, s)
			if i == 0 {
				res = got
			} else if got != res {
				t.Fatalf("%s %s tick %d: step %+v, interpreted %+v", tc.name, tiers[i].name, tick, got, res)
			}
		}
		ref.step(s, res, engines[0].Scoreboard())
		violated := res.Outcome == monitor.Violated
		if violated && restoredAt < 0 && tick > len(tc.traffic)/2 && tick-lastViolation < depth {
			// Mid faulty stretch: every engine is replaced by one
			// restored from its JSON snapshot.
			restoredAt = tick
			for i, e := range engines {
				var snap monitor.EngineSnapshot
				if err := json.Unmarshal([]byte(mustJSON(t, e.Snapshot())), &snap); err != nil {
					t.Fatal(err)
				}
				restored := tiers[i].new()
				if err := restored.Restore(snap); err != nil {
					t.Fatal(err)
				}
				restored.Scoreboard().Restore(e.Scoreboard().Snapshot())
				engines[i] = restored
			}
		}
		if violated {
			lastViolation = tick
		}
		// A read renders every retained window, so wide windows are
		// read less often.
		if (violated && r.Intn(depth) < 2) || r.Intn(50*depth) < 2 {
			check(tick)
		}
	}
	check(len(tc.traffic))
	if n := engines[0].Stats().Violations; n <= 32 {
		t.Fatalf("%s: %d violations, want more than the 32-report ring", tc.name, n)
	}
	if restoredAt < 0 {
		t.Fatalf("%s: no faulty stretch to restore in", tc.name)
	}
	if ref.short == 0 && depth == 64 {
		t.Errorf("%s: no report with a window shorter than the depth", tc.name)
	}
	if !readBetweenViolations(ref.violations, reads, depth) {
		t.Errorf("%s: no read fell between two violations of one window", tc.name)
	}
}

// readBetweenViolations reports whether some read came after one
// violation and before the next, with both in one window.
func readBetweenViolations(violations, reads []int, depth int) bool {
	for i := 1; i < len(violations); i++ {
		a, b := violations[i-1], violations[i]
		if b-a >= depth {
			continue
		}
		for _, rd := range reads {
			if a <= rd && rd < b {
				return true
			}
		}
	}
	return false
}
