// Package conformance is the generative conformance harness: it draws
// random well-formed CESC charts and adversarial tick streams
// (internal/gen), decides ground truth with the slow-but-obviously-
// correct reference semantics (internal/semantics), and differentially
// checks every layer of the stack against it — the execution tiers in
// detect and assert mode, the exact pattern matcher, both history
// abstractions, the multi-clock executor, the daemon's NDJSON and VCD
// ingest paths, and crash-at-every-batch WAL recovery. Divergences are
// shrunk to minimal (chart, trace) pairs and emitted as replayable
// regressions; see cmd/cescfuzz for the CLI.
package conformance

import (
	"fmt"
	"strings"

	"repro/internal/chart"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/trace"
)

// Config tunes a campaign; zero values select the documented defaults.
type Config struct {
	// Seed makes the whole campaign deterministic: same seed, same
	// charts, same traces, same verdicts.
	Seed int64
	// Charts is the number of single-clock charts to draw (default 100).
	Charts int
	// TracesPerChart is the number of adversarial traces checked against
	// each chart (default 2).
	TracesPerChart int
	// TraceLen is the tick count of each generated trace (default 40).
	TraceLen int
	// AsyncCharts is the number of multi-clock charts to draw
	// (default Charts/10).
	AsyncCharts int
	// ServerEvery routes every k-th chart through a live cescd instance
	// (NDJSON and VCD ingest; default 10; negative disables).
	ServerEvery int
	// RecoveryEvery crash-recovers every k-th server run at every batch
	// boundary (default 2 — every second server run; negative disables).
	RecoveryEvery int
	// PageEvery pages every k-th server run's sessions out to the WAL
	// between batches, so each batch lands on a cold session and forces
	// a revival (default 3 — every third server run; negative disables).
	// Verdicts must still match the oracle exactly: paging is required
	// to be transparent.
	PageEvery int
	// MineEvery runs the spec-mining round-trip phase on every k-th
	// chart: satisfying witnesses are mined back into charts, and every
	// chart clearing the mine validation gate must accept each witness
	// it came from, with the gate's own differential stack escalated as
	// divergences (default 5; negative disables).
	MineEvery int
	// RegressionDir, when set, receives a shrunk replayable reproduction
	// of every divergence.
	RegressionDir string
	// Gen tunes the chart generator.
	Gen gen.Config
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Charts == 0 {
		c.Charts = 100
	}
	if c.TracesPerChart == 0 {
		c.TracesPerChart = 2
	}
	if c.TraceLen == 0 {
		c.TraceLen = 40
	}
	if c.AsyncCharts == 0 {
		c.AsyncCharts = c.Charts / 10
	}
	if c.ServerEvery == 0 {
		c.ServerEvery = 10
	}
	if c.RecoveryEvery == 0 {
		c.RecoveryEvery = 2
	}
	if c.PageEvery == 0 {
		c.PageEvery = 3
	}
	if c.MineEvery == 0 {
		c.MineEvery = 5
	}
	return c
}

// Divergence is one disagreement between two parties that must agree,
// with everything needed to reproduce it: the (shrunk) chart in
// canonical source form and the offending trace.
type Divergence struct {
	// Kind names the pair that disagreed (e.g. "tier-program",
	// "nfa-vs-oracle", "server-ndjson", "recovery").
	Kind string
	// Detail is a human-readable account of the disagreement.
	Detail string
	// Seed and Index locate the draw inside the campaign.
	Seed  int64
	Index int
	// Source is the chart in canonical .cesc form (post-shrink).
	Source string
	// Trace is the offending tick stream (post-shrink).
	Trace trace.Trace
	// GlobalTrace is set instead of Trace for multi-clock divergences.
	GlobalTrace trace.GlobalTrace
	// File is the regression basename when one was written.
	File string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s (seed %d, chart %d): %s", d.Kind, d.Seed, d.Index, d.Detail)
}

// Report summarizes one campaign.
type Report struct {
	Seed   int64
	Charts int
	Traces int
	// AssertViolating counts the traces on which the assert-mode tier
	// check saw at least one violation (a zero means it checked nothing).
	AssertViolating int
	AsyncCharts     int
	ServerRuns      int
	Recoveries      int
	Pageouts        int
	MineRuns        int
	Divergences     []*Divergence
}

// Run executes a campaign. A non-nil error means the harness itself
// failed (e.g. an unwritable regression dir); divergences are reported,
// not returned as errors.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g := gen.New(cfg.Seed, cfg.Gen)
	rep := &Report{Seed: cfg.Seed}

	for i := 0; i < cfg.Charts; i++ {
		c := g.Chart()
		rep.Charts++
		sup, err := gen.Support(c)
		if err != nil {
			return rep, fmt.Errorf("chart %d: support: %w", i, err)
		}
		for k := 0; k < cfg.TracesPerChart; k++ {
			tr := g.Trace(c, sup, cfg.TraceLen)
			rep.Traces++
			d, violated := checkChart(c, tr)
			if violated {
				rep.AssertViolating++
			}
			if d != nil {
				d = finishDivergence(cfg, d, i, c, tr, func(c2 chart.Chart, tr2 trace.Trace) bool {
					d2, _ := checkChart(c2, tr2)
					return d2 != nil && d2.Kind == d.Kind
				})
				rep.Divergences = append(rep.Divergences, d)
				logf("DIVERGENCE %s", d)
			}
		}
		if cfg.ServerEvery > 0 && i%cfg.ServerEvery == 0 {
			run := i / cfg.ServerEvery
			doRecover := cfg.RecoveryEvery > 0 && run%cfg.RecoveryEvery == 0
			doPage := cfg.PageEvery > 0 && run%cfg.PageEvery == 0
			tr := g.Trace(c, sup, cfg.TraceLen)
			ds, recovered, paged, err := serverCheck(c, tr, doRecover, doPage)
			if err != nil {
				return rep, fmt.Errorf("chart %d: server phase: %w", i, err)
			}
			rep.ServerRuns++
			rep.Recoveries += recovered
			rep.Pageouts += paged
			for _, d := range ds {
				// Server divergences are shrunk against the local check
				// only when the local stack also disagrees; a pure
				// transport divergence keeps the original pair (the
				// server harness is too heavy for the shrink loop).
				d = finishDivergence(cfg, d, i, c, tr, nil)
				rep.Divergences = append(rep.Divergences, d)
				logf("DIVERGENCE %s", d)
			}
		}
		if cfg.MineEvery > 0 && i%cfg.MineEvery == 0 {
			rep.MineRuns++
			for _, d := range mineCheck(g, c, sup, cfg.Seed) {
				// mineCheck sets Source to the offending mined chart and
				// shrinks the witness itself, so provenance and the
				// regression write happen here rather than through
				// finishDivergence (which would re-print the generated
				// chart over the mined one).
				d.Seed, d.Index = cfg.Seed, i
				if cfg.RegressionDir != "" {
					if err := writeRegression(cfg.RegressionDir, d); err != nil {
						d.Detail += fmt.Sprintf(" (regression write failed: %v)", err)
					}
				}
				rep.Divergences = append(rep.Divergences, d)
				logf("DIVERGENCE %s", d)
			}
		}
		if i%25 == 24 {
			logf("%d/%d charts, %d divergences", i+1, cfg.Charts, len(rep.Divergences))
		}
	}

	for i := 0; i < cfg.AsyncCharts; i++ {
		rep.AsyncCharts++
		if d := asyncCheck(g); d != nil {
			d.Seed, d.Index = cfg.Seed, i
			if cfg.RegressionDir != "" {
				if err := writeRegression(cfg.RegressionDir, d); err != nil {
					return rep, err
				}
			}
			rep.Divergences = append(rep.Divergences, d)
			logf("DIVERGENCE %s", d)
		}
	}
	return rep, nil
}

// finishDivergence shrinks (when a local re-check predicate is given),
// stamps provenance, renders the canonical source, and writes the
// regression file.
func finishDivergence(cfg Config, d *Divergence, idx int, c chart.Chart, tr trace.Trace,
	fails func(chart.Chart, trace.Trace) bool) *Divergence {
	if fails != nil {
		c, tr = gen.Shrink(c, tr, fails)
		// Re-derive the detail from the shrunk pair so the report
		// describes what the regression file actually contains.
		if d2, _ := checkChart(c, tr); d2 != nil && d2.Kind == d.Kind {
			d.Detail = d2.Detail
		}
	}
	d.Seed, d.Index = cfg.Seed, idx
	d.Source = parser.Print("R_"+strings.ReplaceAll(sanitize(d.Kind), "-", "_"), c)
	d.Trace = tr
	if cfg.RegressionDir != "" {
		if err := writeRegression(cfg.RegressionDir, d); err != nil {
			// Surface the write failure without losing the divergence.
			d.Detail += fmt.Sprintf(" (regression write failed: %v)", err)
		}
	}
	return d
}
