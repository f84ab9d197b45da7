// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md).
// The paper has no numeric tables; its evaluation is the worked figures
// plus qualitative claims, so each figure gets (a) a synthesis bench and
// (b) a monitor-runtime bench over model traffic, and the claims get
// scaling, ablation and baseline benches.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/ltlmon"
	"repro/internal/mclock"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/readproto"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/verif"
)

// --- E1: Figure 1, single-clock read protocol ---------------------------

func BenchmarkFig1SingleClockReadSynthesis(b *testing.B) {
	sc := readproto.SingleClockChart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Translate(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1SingleClockReadRuntime(b *testing.B) {
	m := synth.MustTranslate(readproto.SingleClockChart(), nil)
	tr := trace.Concat(
		readproto.GoodSingleClockTrace(3),
		readproto.GoodSingleClockTrace(1),
		readproto.GoodSingleClockTrace(5),
	)
	eng := monitor.NewEngine(m, nil, monitor.ModeDetect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(tr[i%len(tr)])
	}
	reportTicksPerSec(b)
}

// --- E2: Figure 2, multi-clock read protocol ----------------------------

func BenchmarkFig2MultiClockReadSynthesis(b *testing.B) {
	a := readproto.MultiClockChart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mclock.Synthesize(a, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MultiClockReadRuntime(b *testing.B) {
	mm, err := mclock.Synthesize(readproto.MultiClockChart(), nil)
	if err != nil {
		b.Fatal(err)
	}
	g := readproto.GoodGlobalTrace(1)
	ex := mclock.NewExec(mm, monitor.ModeDetect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.StepTick(g[i%len(g)]); err != nil {
			b.Fatal(err)
		}
	}
	reportTicksPerSec(b)
}

// --- E4: Figure 4, end-to-end flow --------------------------------------

func BenchmarkFlowEndToEnd(b *testing.B) {
	// Whole flow per iteration: synthesize from the chart, run 1000
	// cycles of model traffic through the monitor, collect the verdict.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := verif.RunOCPCampaign(ocp.Config{Gap: 2, Seed: int64(i)}, 1000, monitor.ModeDetect)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Accepts == 0 {
			b.Fatal("flow produced no detections")
		}
	}
}

// --- E5: Figure 5, generic causality SCESC ------------------------------

func fig5Chart() *chart.SCESC {
	return &chart.SCESC{
		ChartName: "fig5", Clock: "clk", Instances: []string{"A", "B"},
		Lines: []chart.GridLine{
			{Events: []chart.EventSpec{
				{Event: "e1", Guard: expr.Pr("p1")}, {Event: "e2"},
			}},
			{},
			{Events: []chart.EventSpec{{Event: "e3", Guard: expr.Pr("p3")}}},
		},
		Arrows: []chart.Arrow{{From: "e1", To: "e3"}},
	}
}

func BenchmarkFig5Synthesis(b *testing.B) {
	sc := fig5Chart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Translate(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Figure 6, OCP simple read --------------------------------------

func BenchmarkFig6OCPSimpleReadSynthesis(b *testing.B) {
	sc := ocp.SimpleReadChart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Translate(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6OCPSimpleReadRuntime(b *testing.B) {
	benchMonitorOverTrace(b,
		synth.MustTranslate(ocp.SimpleReadChart(), nil),
		ocp.NewModel(ocp.Config{Gap: 2, Seed: 1}).GenerateTrace(4096))
}

// --- E7: Figure 7, OCP pipelined burst read ------------------------------

func BenchmarkFig7OCPBurstReadSynthesis(b *testing.B) {
	sc := ocp.BurstReadChart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Translate(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7OCPBurstReadRuntime(b *testing.B) {
	benchMonitorOverTrace(b,
		synth.MustTranslate(ocp.BurstReadChart(), nil),
		ocp.NewModel(ocp.Config{Gap: 2, Seed: 2, Burst: true}).GenerateTrace(4096))
}

// --- E8: Figure 8, AMBA AHB CLI transaction ------------------------------

func BenchmarkFig8AMBATransactionSynthesis(b *testing.B) {
	sc := amba.TransactionChart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Translate(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8AMBATransactionRuntime(b *testing.B) {
	benchMonitorOverTrace(b,
		synth.MustTranslate(amba.TransactionChart(), nil),
		amba.NewModel(amba.Config{Gap: 2, Seed: 3}).GenerateTrace(4096))
}

// --- E9: synthesis scaling and construction ablation ---------------------

// scalingPattern builds an n-tick chart over a pool of `width` events
// (grid line i requires event i mod width and the absence of its
// neighbour), keeping the support fixed while the pattern grows.
func scalingChart(n, width int) *chart.SCESC {
	sc := &chart.SCESC{ChartName: fmt.Sprintf("scale_%d_%d", n, width), Clock: "clk"}
	for i := 0; i < n; i++ {
		ev := fmt.Sprintf("s%d", i%width)
		next := fmt.Sprintf("s%d", (i+1)%width)
		sc.Lines = append(sc.Lines, chart.GridLine{Events: []chart.EventSpec{
			{Event: ev},
			{Event: next, Negated: true},
		}})
	}
	return sc
}

func BenchmarkSynthesisScalingLength(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("ticks=%d", n), func(b *testing.B) {
			sc := scalingChart(n, 6)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Translate(sc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSynthesisScalingSupport(b *testing.B) {
	for _, w := range []int{2, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("support=%d", w), func(b *testing.B) {
			sc := scalingChart(12, w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Translate(sc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationConstruction compares the paper's literal
// per-valuation pseudocode (enumerate) against the equivalent symbolic
// construction (direct) on the same chart.
func BenchmarkAblationConstruction(b *testing.B) {
	sc := scalingChart(12, 8)
	for _, s := range []synth.Strategy{synth.StrategyDirect, synth.StrategyEnumerate} {
		b.Run(s.String(), func(b *testing.B) {
			opts := &synth.Options{Strategy: s}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Translate(sc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHistory compares the two suffix_of history
// abstractions (DESIGN.md §3.1) at runtime on non-orthogonal traffic.
func BenchmarkAblationHistory(b *testing.B) {
	sc := ocp.BurstReadChart()
	tr := ocp.NewModel(ocp.Config{Gap: 0, Seed: 4, Burst: true}).GenerateTrace(4096)
	for _, h := range []synth.History{synth.HistImplication, synth.HistSatisfiable} {
		b.Run(h.String(), func(b *testing.B) {
			m, err := synth.Translate(sc, &synth.Options{History: h})
			if err != nil {
				b.Fatal(err)
			}
			benchMonitorOverTrace(b, m, tr)
		})
	}
}

// --- E10: baselines -------------------------------------------------------

// BenchmarkBaselineRuntime compares runtime throughput of the
// CESC-synthesized monitor against the hand-written checker and the
// temporal-logic (formula progression) detector on identical OCP simple
// read traffic.
func BenchmarkBaselineRuntime(b *testing.B) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 5}).GenerateTrace(4096)

	b.Run("cesc-synthesized", func(b *testing.B) {
		benchMonitorOverTrace(b, synth.MustTranslate(ocp.SimpleReadChart(), nil), tr)
	})
	b.Run("cesc-table", func(b *testing.B) {
		m := synth.MustTranslate(ocp.SimpleReadChart(), nil)
		prog, err := monitor.CompileProgram(m)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := monitor.CompileTable(m)
		if err != nil {
			b.Fatal(err)
		}
		eng := prog.NewEngine(nil, monitor.ModeDetect)
		if err := eng.UseTable(tab); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step(tr[i%len(tr)])
		}
		reportTicksPerSec(b)
	})
	b.Run("manual-checker", func(b *testing.B) {
		var m verif.ManualOCPSimpleRead
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(tr[i%len(tr)])
		}
		reportTicksPerSec(b)
	})
	b.Run("ltl-progression", func(b *testing.B) {
		p := synth.ExtractPattern(ocp.SimpleReadChart())
		d := ltlmon.NewDetector(ltlmon.SequenceFormula(p))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Step(tr[i%len(tr)])
		}
		reportTicksPerSec(b)
	})
}

// BenchmarkBaselineLTLBurst shows the progression baseline's cost growing
// with scenario length (the burst pattern spawns long-lived instances).
func BenchmarkBaselineLTLBurst(b *testing.B) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 6, Burst: true}).GenerateTrace(4096)
	b.Run("cesc-synthesized", func(b *testing.B) {
		benchMonitorOverTrace(b, synth.MustTranslate(ocp.BurstReadChart(), nil), tr)
	})
	b.Run("ltl-progression", func(b *testing.B) {
		p := synth.ExtractPattern(ocp.BurstReadChart())
		d := ltlmon.NewDetector(ltlmon.SequenceFormula(p))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Step(tr[i%len(tr)])
		}
		reportTicksPerSec(b)
	})
}

// --- E11: structural composition ------------------------------------------

func BenchmarkComposedSynthesis(b *testing.B) {
	mkLeaf := func(name string, evs ...string) *chart.SCESC {
		sc := &chart.SCESC{ChartName: name, Clock: "clk"}
		for _, e := range evs {
			sc.Lines = append(sc.Lines, chart.GridLine{Events: []chart.EventSpec{{Event: e}}})
		}
		return sc
	}
	c := &chart.Seq{ChartName: "composite", Children: []chart.Chart{
		mkLeaf("head", "start"),
		&chart.Alt{ChartName: "mid", Children: []chart.Chart{
			mkLeaf("fast", "hit"),
			mkLeaf("slow", "miss", "refill"),
		}},
		&chart.Loop{ChartName: "beats", Body: mkLeaf("beat", "data"), Min: 1, Max: 4},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBurstLengthSweep scales the Figure 7 case study: synthesis
// cost and monitor runtime as the burst length grows.
func BenchmarkBurstLengthSweep(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		c, err := ocp.BurstReadChartN(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("synthesis/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Translate(c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("runtime/n=%d", n), func(b *testing.B) {
			m, err := synth.Translate(c, nil)
			if err != nil {
				b.Fatal(err)
			}
			tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: int64(n), Burst: true, BurstLen: n}).GenerateTrace(4096)
			benchMonitorOverTrace(b, m, tr)
		})
	}
}

// BenchmarkHandshakeSynthesis measures the loop-composed OCP write
// handshake (subset construction) across wait-state bounds.
func BenchmarkHandshakeSynthesis(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("maxWait=%d", w), func(b *testing.B) {
			c := ocp.HandshakeChart(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinimization measures partition refinement on a composed
// monitor.
func BenchmarkMinimization(b *testing.B) {
	c := ocp.HandshakeChart(3)
	m, err := synth.Synthesize(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Minimize(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: soak campaign with fault injection -------------------------------

func BenchmarkSoakCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := verif.RunAMBACampaign(amba.Config{
			Gap: 1, Seed: int64(i), FaultRate: 0.1,
		}, 5000, monitor.ModeAssert)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Transactions == 0 {
			b.Fatal("no traffic")
		}
	}
}

// --- infrastructure micro-benches ------------------------------------------

func BenchmarkScoreboardOps(b *testing.B) {
	sb := monitor.NewScoreboard()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Add(int64(i), "e")
		sb.Chk("e")
		sb.Del("e")
	}
}

func BenchmarkGuardEvaluation(b *testing.B) {
	g := expr.And(expr.Ev("MCmd_rd"), expr.Ev("Addr"), expr.Ev("SCmd_accept"), expr.Chk("MCmd_rd"))
	s := event.NewState().WithEvents("MCmd_rd", "Addr", "SCmd_accept")
	sb := monitor.NewScoreboard()
	sb.Add(0, "MCmd_rd")
	ctx := benchCtx{s: s, sb: sb}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !g.Eval(ctx) {
			b.Fatal("guard false")
		}
	}
}

type benchCtx struct {
	s  event.State
	sb *monitor.Scoreboard
}

func (c benchCtx) Event(n string) bool  { return c.s.Event(n) }
func (c benchCtx) Prop(n string) bool   { return c.s.Prop(n) }
func (c benchCtx) ChkEvt(n string) bool { return c.sb.Chk(n) }

// --- helpers ---------------------------------------------------------------

func benchMonitorOverTrace(b *testing.B, m *monitor.Monitor, tr trace.Trace) {
	eng := monitor.NewEngine(m, nil, monitor.ModeDetect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(tr[i%len(tr)])
	}
	reportTicksPerSec(b)
}

func reportTicksPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}
