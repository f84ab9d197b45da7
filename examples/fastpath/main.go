// Fast path: bind a synthesized monitor's compiled guard programs to its
// precomputed transition table (the step cescd runs for table-eligible
// sessions) and compare throughput against the interpreted engine and
// the hand-written checker on identical OCP burst traffic (the
// experiment E10 ladder, runnable standalone).
//
//	go run ./examples/fastpath
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/synth"
	"repro/internal/verif"
)

func main() {
	m, err := synth.Translate(ocp.BurstReadChart(), nil)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := monitor.CompileProgram(m)
	if err != nil {
		log.Fatal(err)
	}
	tab, err := monitor.CompileTable(m)
	if err != nil {
		log.Fatal(err)
	}
	compiled := prog.NewEngine(nil, monitor.ModeDetect)
	if err := compiled.UseTable(tab); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitor %s: %d states, transition table %d bytes\n",
		m.Name, m.States, tab.TableBytes())

	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1, Burst: true}).GenerateTrace(1 << 18)

	// Interpreted engine.
	eng := monitor.NewEngine(m, nil, monitor.ModeDetect)
	start := time.Now()
	for _, s := range tr {
		eng.Step(s)
	}
	engDur := time.Since(start)

	// Table-bound engine.
	start = time.Now()
	for _, s := range tr {
		compiled.Step(s)
	}
	compDur := time.Since(start)

	// Hand-written checker.
	var manual verif.ManualOCPBurstRead
	start = time.Now()
	for _, s := range tr {
		manual.Step(s)
	}
	manDur := time.Since(start)

	if eng.Stats().Accepts != compiled.Stats().Accepts || compiled.Stats().Accepts != manual.Accepts() {
		log.Fatalf("detection mismatch: engine %d, table %d, manual %d",
			eng.Stats().Accepts, compiled.Stats().Accepts, manual.Accepts())
	}
	rate := func(d time.Duration) float64 {
		return float64(len(tr)) / d.Seconds() / 1e6
	}
	fmt.Printf("all three detected %d bursts over %d cycles\n", manual.Accepts(), len(tr))
	fmt.Printf("interpreted engine : %7.2f M cycles/s\n", rate(engDur))
	fmt.Printf("table-bound engine : %7.2f M cycles/s (%.1fx engine)\n", rate(compDur), rate(compDur)/rate(engDur))
	fmt.Printf("hand-written       : %7.2f M cycles/s (%.1fx engine)\n", rate(manDur), rate(manDur)/rate(engDur))
}
