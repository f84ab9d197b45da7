package verif

import (
	"repro/internal/event"
	"repro/internal/monitor"
)

// Tier identifies which execution strategy backs a tiered detector, in
// descending per-step cost effectiveness.
type Tier int

const (
	// TierTable is the program engine resolving each step's fired
	// transition in a precomputed 2^bits table (monitor.Engine.UseTable):
	// the fastest step, bounded by the table's combined support and
	// scoreboard width.
	TierTable Tier = iota
	// TierProgram is the compiled guard-program engine: allocation-free
	// packed evaluation at any support width.
	TierProgram
	// TierInterp is the interpreted AST engine, the reference semantics.
	TierInterp
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierTable:
		return "table"
	case TierProgram:
		return "program"
	default:
		return "interpreted"
	}
}

// TieredDetector runs a synthesized monitor in detect mode on the
// fastest execution tier its shape admits: the table-bound program
// engine when the monitor fits under the table compile limit, otherwise
// the compiled guard programs, otherwise the interpreted engine. Every
// tier is a *monitor.Engine, so all of them share the engine's
// semantics (including the reversal of pending scoreboard adds on a
// hard reset). Construction never fails — a monitor too wide for one
// tier silently degrades to the next — which is what the harness wants
// when it attaches arbitrary synthesized monitors to a campaign.
type TieredDetector struct {
	tier Tier
	eng  *monitor.Engine
}

// NewDetector builds the fastest detector for m. Only a structurally
// invalid monitor errors (every tier would reject it).
func NewDetector(m *monitor.Monitor) (*TieredDetector, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p, err := monitor.CompileProgram(m)
	if err != nil {
		return &TieredDetector{tier: TierInterp, eng: monitor.NewEngine(m, nil, monitor.ModeDetect)}, nil
	}
	d := &TieredDetector{tier: TierProgram, eng: p.NewEngine(nil, monitor.ModeDetect)}
	if tab, err := monitor.CompileTable(m); err == nil && d.eng.UseTable(tab) == nil {
		d.tier = TierTable
	}
	return d, nil
}

// Tier reports the execution strategy in use.
func (d *TieredDetector) Tier() Tier { return d.tier }

// StepDetect consumes one element and reports whether the scenario
// completed at this tick.
func (d *TieredDetector) StepDetect(s event.State) bool {
	return d.eng.Step(s).Outcome == monitor.Accepted
}

// Accepts returns the number of acceptances so far.
func (d *TieredDetector) Accepts() int { return d.eng.Stats().Accepts }
