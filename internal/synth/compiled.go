package synth

import (
	"fmt"
	"sync"

	"repro/internal/event"
	"repro/internal/monitor"
)

// CompiledSpec is the immutable per-chart artifact of synthesis on the
// fast path: the synthesized automaton, every guard compiled to a flat
// slot-indexed program, and the interned input support. One CompiledSpec
// is built when a chart is loaded and then shared — by reference, never
// copied — across every session running the monitor; sessions carry only
// mutable engine state bound to it (see monitor.Program.NewEngine and
// NewEngineVocab).
type CompiledSpec struct {
	Monitor *monitor.Monitor
	Program *monitor.Program

	tableOnce sync.Once
	table     *monitor.Table
	tableErr  error
}

// Support returns the interned input support of the compiled monitor;
// its slot order is the packing order for Program-bound engines.
func (cs *CompiledSpec) Support() *event.Support { return cs.Program.Support() }

// Table returns the shared transition table of the monitor, building it
// on first use (the table tier is optional: wide monitors exceed the
// compile cap and keep running on the program tier). The result is
// cached — every table-bound engine of the spec shares one table — and
// safe for concurrent callers.
func (cs *CompiledSpec) Table() (*monitor.Table, error) {
	cs.tableOnce.Do(func() {
		cs.table, cs.tableErr = monitor.CompileTable(cs.Monitor)
	})
	return cs.table, cs.tableErr
}

// NewCompiledSpec compiles the guard programs of an already-synthesized
// monitor.
func NewCompiledSpec(m *monitor.Monitor) (*CompiledSpec, error) {
	p, err := monitor.CompileProgram(m)
	if err != nil {
		return nil, fmt.Errorf("synth: compiling %q: %w", m.Name, err)
	}
	return &CompiledSpec{Monitor: m, Program: p}, nil
}
