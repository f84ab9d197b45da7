package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/synth"
)

// verdict is the part of a monitor's verdict the correctness gate
// compares against the reference engine.
type verdict struct {
	Steps, Accepts, Violations int
}

func (v verdict) add(o verdict) verdict {
	return verdict{v.Steps + o.Steps, v.Accepts + o.Accepts, v.Violations + o.Violations}
}

// engineState is everything that decides how the interpreted engine
// steps: automaton state, pending Add_evt reversals, and the live
// scoreboard counts. The tick counter only timestamps scoreboard entries
// and the accumulated stats only count, so neither is part of it.
type engineState struct {
	state   int
	pending []string
	slots   []string
	counts  []int
}

func (s engineState) key() string {
	return fmt.Sprint(s.state, s.pending, s.slots, s.counts)
}

// reference is the paper-faithful interpreted engine (monitor.NewEngine
// over the synthesized monitor) for one mix. A session's tick stream is a
// sequence of batches from the mix's pool; stepping batch i from engine
// state s always yields the same verdict increment and next state, so the
// reference memoises that pair per (i, s). The result is exactly what
// stepping the whole stream tick by tick gives, at the cost of stepping
// each distinct (batch, state) pair once.
type reference struct {
	mon    *monitor.Monitor
	mode   monitor.Mode
	pool   [][]server.StateJSON
	states [][]event.State // pool batches decoded on first use
	memo   map[string]refStep
}

type refStep struct {
	delta verdict
	next  engineState
}

func newReference(mon *monitor.Monitor, mode string, pool [][]server.StateJSON) *reference {
	md := monitor.ModeDetect
	if mode == "assert" {
		md = monitor.ModeAssert
	}
	return &reference{mon: mon, mode: md, pool: pool,
		states: make([][]event.State, len(pool)), memo: map[string]refStep{}}
}

// step applies pool batch i to an engine in state s.
func (r *reference) step(s engineState, i int) refStep {
	k := fmt.Sprint(i, " ", s.key())
	if st, ok := r.memo[k]; ok {
		return st
	}
	if r.states[i] == nil {
		r.states[i] = make([]event.State, len(r.pool[i]))
		for j, t := range r.pool[i] {
			r.states[i][j] = t.ToState()
		}
	}
	eng := monitor.NewEngine(r.mon, nil, r.mode)
	// Restore cannot fail: s.state came from this monitor's own engine.
	_ = eng.Restore(monitor.EngineSnapshot{State: s.state, Pending: s.pending})
	eng.Scoreboard().Restore(monitor.ScoreboardSnapshot{Slots: s.slots, SlotCounts: s.counts})
	for _, st := range r.states[i] {
		eng.Step(st)
	}
	stats := eng.Stats()
	snap, sb := eng.Snapshot(), eng.Scoreboard().Snapshot()
	st := refStep{
		delta: verdict{stats.Steps, stats.Accepts, stats.Violations},
		next:  engineState{state: snap.State, pending: snap.Pending, slots: sb.Slots, counts: sb.SlotCounts},
	}
	r.memo[k] = st
	return st
}

// expect is the verdict after the first n batches of a stream that
// starts at pool offset off.
func (r *reference) expect(off, n int) verdict {
	s := engineState{state: r.mon.Initial}
	var v verdict
	for i := 0; i < n; i++ {
		st := r.step(s, (off+i)%len(r.pool))
		v, s = v.add(st.delta), st.next
	}
	return v
}

// loadMonitors synthesizes every chart of the given repo-relative .cesc
// files, exactly as cescd's registry does, keyed by chart name.
func loadMonitors(root string, files []string) (map[string]*monitor.Monitor, error) {
	out := map[string]*monitor.Monitor{}
	for _, f := range files {
		src, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return nil, err
		}
		pf, err := parser.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, c := range pf.Charts {
			m, err := synth.Synthesize(c.Chart, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: chart %s: %w", f, c.Name, err)
			}
			out[c.Name] = m
		}
	}
	return out, nil
}

// checkVerdicts compares what cescd reports for a stream's session with
// the reference. A stream whose last send failed may or may not have had
// that batch applied, so either count is accepted for it.
func checkVerdicts(s *stream, got server.VerdictsJSON) error {
	if len(got.Monitors) != 1 || got.Monitors[0].Spec != s.mix.spec {
		return fmt.Errorf("session %s: want one %s monitor, got %d", s.sess.ID, s.mix.spec, len(got.Monitors))
	}
	m := got.Monitors[0]
	have := verdict{m.Steps, m.Accepts, m.Violations}
	want := s.mix.ref.expect(s.offset, s.acked)
	if have == want {
		return nil
	}
	if s.broken && have == s.mix.ref.expect(s.offset, s.acked+1) {
		return nil
	}
	return fmt.Errorf("session %s (%s): cescd reports %+v, reference engine %+v after %d batches",
		s.sess.ID, s.mix.spec, have, want, s.acked)
}

// problems collects correctness-gate failures; any entry fails the run.
type problems []string

func (p *problems) addf(format string, args ...any) {
	*p = append(*p, fmt.Sprintf(format, args...))
}
