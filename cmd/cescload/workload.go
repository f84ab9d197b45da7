package main

import (
	"fmt"
	"math/rand"

	"repro/internal/amba"
	"repro/internal/axi"
	"repro/internal/event"
	"repro/internal/ocp"
	"repro/internal/server"
)

// A mix is one group of identical sessions within a workload: the chart
// they monitor, the traffic model that feeds them, and how many there are.
type mix struct {
	spec      string  // chart name as cescd registers it
	file      string  // repo-relative .cesc file that defines the chart
	model     string  // traffic model: ocp, ocp_burst, ahb or axi
	mode      string  // session mode: detect or assert
	diag      int     // diagnostics window; 0 keeps the mode default
	sessions  int     // sessions in the main phases
	faultRate float64 // share of protocol transactions the model corrupts
}

// A workload is one cescd deployment plus the traffic sent to it. The
// reasons each exists, and which layers each exercises or bypasses, are in
// the package documentation.
type workload struct {
	name   string
	nodes  int    // cescd processes; more than one forms a static ring
	shards int    // cescd -shards; 0 keeps the daemon default
	fsync  string // cescd -fsync with a -wal-dir per node; "" runs without a WAL
	mixes  []mix
	batch  int  // ticks per posted batch
	lanes  bool // its sessions step on the lane tier; no other workload's may
	// openRate is the open-loop offered load in batches/s, frozen at about
	// a quarter of the closed-loop batch rate measured when the benchmark
	// was defined, so that a machine slowed threefold by its neighbours
	// still runs below saturation. It is never derived at run time, so a
	// slower build faces the same offered load and its queueing shows.
	openRate float64
}

// Traffic models, one per protocol in the paper's case studies plus the
// AXI4 model behind the mined golden chart.
const (
	modelOCP      = "ocp"
	modelOCPBurst = "ocp_burst"
	modelAHB      = "ahb"
	modelAXI      = "axi"
)

// detectFaultRate corrupts a few transactions in detect-mode traffic so
// that -seed changes the inputs of every workload, not only assert_diag's.
const detectFaultRate = 0.02

var workloads = []workload{
	{
		name: "lane_stream", nodes: 1, shards: 2, lanes: true,
		batch: 4096, openRate: 120,
		mixes: []mix{
			{spec: "LaneRead", file: "cmd/cescload/specs/lane_read.cesc", model: modelOCP, mode: "detect", sessions: 64, faultRate: detectFaultRate},
		},
	},
	{
		name: "program_wal", nodes: 1, fsync: "always",
		batch: 256, openRate: 700,
		mixes: []mix{
			{spec: "OcpSimpleRead", file: "specs/ocp_simple_read.cesc", model: modelOCP, mode: "detect", sessions: 16, faultRate: detectFaultRate},
			{spec: "OcpBurstRead", file: "specs/ocp_burst_read.cesc", model: modelOCPBurst, mode: "detect", sessions: 16, faultRate: detectFaultRate},
			{spec: "AmbaAhbCli", file: "specs/amba_ahb_cli.cesc", model: modelAHB, mode: "detect", sessions: 16, faultRate: detectFaultRate},
			{spec: "axi4_burst_arlen4", file: "testdata/corpus/golden/axi4_burst.cesc", model: modelAXI, mode: "detect", sessions: 16, faultRate: detectFaultRate},
		},
	},
	{
		name: "assert_diag", nodes: 1,
		batch: 1024, openRate: 75,
		mixes: []mix{
			{spec: "OcpSimpleRead", file: "specs/ocp_simple_read.cesc", model: modelOCP, mode: "assert", diag: 8, sessions: 16, faultRate: 0.2},
			{spec: "AmbaAhbCli", file: "specs/amba_ahb_cli.cesc", model: modelAHB, mode: "assert", diag: 8, sessions: 16, faultRate: 0.2},
		},
	},
	{
		name: "ring_proxy", nodes: 3, fsync: "interval",
		batch: 256, openRate: 450,
		mixes: []mix{
			{spec: "OcpSimpleRead", file: "specs/ocp_simple_read.cesc", model: modelOCP, mode: "detect", sessions: 48, faultRate: detectFaultRate},
		},
	},
}

// workloadByName finds a workload definition.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specFiles lists the distinct repo-relative .cesc files the workload's
// mixes load, in mix order.
func (w workload) specFiles() []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range w.mixes {
		if !seen[m.file] {
			seen[m.file] = true
			out = append(out, m.file)
		}
	}
	return out
}

// sessions is the workload's session count in the main phases.
func (w workload) sessions() int {
	n := 0
	for _, m := range w.mixes {
		n += m.sessions
	}
	return n
}

// The recovery phase journals recoverTicks ticks into each of
// recoverSessions sessions: 64 batches at 256 ticks, below cescd's
// default snapshot interval of 256 batches, so no checkpoint cuts the
// journal, every restart replays the same frames, and recover_s measures
// a fixed amount of work. The median of recoverRestarts restarts is
// reported.
const (
	recoverSessions = 16
	recoverTicks    = 64 * 256
	recoverRestarts = 5
)

// forRecovery derives the recovery phase's deployment: one node that
// journals with -fsync never, and the workload's mixes scaled down to
// recoverSessions sessions. SIGKILL leaves written frames in the page
// cache, and replay work does not depend on the sync policy, so skipping
// fsync only shortens the untimed fill.
func (w workload) forRecovery() workload {
	r := w
	r.nodes, r.fsync, r.mixes = 1, "never", nil
	total := w.sessions()
	for _, m := range w.mixes {
		m.sessions = m.sessions * recoverSessions / total
		r.mixes = append(r.mixes, m)
	}
	return r
}

// poolBatches is how many distinct batches each mix's traffic pool holds.
// A session replays its pool cyclically from a seeded offset, so its tick
// stream is one continuous model trace apart from the seam at the wrap.
const poolBatches = 16

// makePool runs the mix's protocol model for poolBatches×batch cycles and
// cuts the trace into batches in the NDJSON wire form.
func makePool(m mix, batch int, seed int64) ([][]server.StateJSON, error) {
	src := rand.NewSource(seed)
	var step func() event.State
	switch m.model {
	case modelOCP:
		step = ocp.NewModel(ocp.Config{Gap: 1, FaultRate: m.faultRate, Source: src}).Step
	case modelOCPBurst:
		step = ocp.NewModel(ocp.Config{Gap: 1, Burst: true, FaultRate: m.faultRate, Source: src}).Step
	case modelAHB:
		step = amba.NewModel(amba.Config{Gap: 1, FaultRate: m.faultRate, Source: src}).Step
	case modelAXI:
		step = axi.NewModel(axi.Config{Gap: 1, FaultRate: m.faultRate, Source: src}).Step
	default:
		return nil, fmt.Errorf("mix %s: unknown traffic model %q", m.spec, m.model)
	}
	pool := make([][]server.StateJSON, poolBatches)
	for i := range pool {
		b := make([]server.StateJSON, batch)
		for j := range b {
			b[j] = server.EncodeState(step())
		}
		pool[i] = b
	}
	return pool, nil
}
