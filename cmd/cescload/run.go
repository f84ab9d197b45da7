package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/server"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of cescd sees; untraced runs report
// them. Definitions are in the package documentation.
var endToEnd = []metricDef{
	{"ticks_per_s", "ticks/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"server_cpu_ns_per_tick", "ns"},
	{"client_cpu_ns_per_tick", "ns"},
	{"server_rss_mb", "MiB"},
	{"recover_s", "s"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics; traced runs report them.
var perLayer = []metricDef{
	{"client.send_us", "us"},
	{"client.self_us", "us"},
	{"client.retries", "count"},
	{"http.roundtrip_us", "us"},
	{"server.decode_us", "us"},
	{"server.enqueue_us", "us"},
	{"server.queue_wait_us", "us"},
	{"server.verdict_us", "us"},
	{"server.rejected", "count"},
	{"monitor.step_us", "us"},
	{"monitor.step_ns_per_tick", "ns"},
	{"monitor.lane_tick_share", "1"},
	{"wal.append_us", "us"},
	{"wal.syncs_per_batch", "1"},
	{"wal.bytes_per_tick", "B"},
	{"wal.replay_ms", "ms"},
	{"cluster.proxied_share", "1"},
	{"cluster.replicated_per_batch", "1"},
	{"cluster.proxy_us", "us"},
	{"synth.spec_load_ms", "ms"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.open_p99_ms", "ms"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.cpu_speed", "1"},
	{"unexplained_us", "us"},
}

// setupRuns is how many times a run deploys the workload; setup_s is the
// median, and the last deployment carries the measured phases.
const setupRuns = 5

// specLoads is how many times a traced run reloads its spec set for
// synth.spec_load_ms.
const specLoads = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, as written to -out files.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`

	values map[string]float64 // every metric measured, for the report
	notes  map[string]string  // sample counts and context per metric
	budget string             // traced runs: the per-batch budget identity
}

func (r *runResult) set(name string, v float64, note string, args ...any) {
	r.values[name] = v
	r.notes[name] = fmt.Sprintf(note, args...)
}

// env is what every run shares.
type env struct {
	root  string // checkout root
	out   string // build and scratch directory inside the checkout
	cescd string // daemon binary
}

// runOnce deploys the workload, measures the closed and open phases (each
// half of seconds), checks every verdict, measures crash recovery, and
// tears everything down. A traced run first repeats the closed phase
// untraced, for the tracing overhead, then traces the closed and open
// phases and reports the per-layer metrics.
func runOnce(ctx context.Context, e *env, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Metrics: map[string]metricValue{},
		values: map[string]float64{}, notes: map[string]string{}}
	if traced {
		r.Trace = 1
	}
	var prob problems
	mixes, err := newTraffic(e.root, w, seed)
	if err != nil {
		return nil, err
	}
	half := time.Duration(seconds / 2 * float64(time.Second))
	g := startGauge()
	defer g.close()
	account := func(d *deployment) {
		d.close()
		a, f := d.requests()
		r.Attempted += a
		r.Failed += f
	}

	var setups []float64
	var dep *deployment
	for i := 0; i < setupRuns; i++ {
		if dep != nil {
			account(dep)
		}
		start := time.Now()
		d, took, err := deploy(ctx, e.cescd, e.root, filepath.Join(e.out, "run", w.name), w, mixes, traced && w.nodes > 1)
		if err != nil {
			return nil, err
		}
		dep = d
		setups = append(setups, took.Seconds()*g.speed(start, time.Now()))
	}
	defer dep.close()

	var tr *tracer
	var untracedTPS float64
	if traced {
		tr = newTracer()
		base, err := dep.closed(ctx, half, nil)
		if err != nil {
			return nil, err
		}
		untracedTPS = float64(base.ticks()) / base.elapsed().Seconds()
	}
	retries0 := dep.retries()
	before, err := dep.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	cr, err := dep.closed(ctx, half, tr)
	if err != nil {
		return nil, err
	}
	after, err := dep.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	retries := dep.retries() - retries0
	or := dep.open(ctx, half, w.openRate, tr)

	for _, s := range dep.streams {
		v, err := s.sess.Verdicts(ctx)
		if err != nil {
			prob.addf("reading verdicts of %s: %v", s.sess.ID, err)
		} else if err := checkVerdicts(s, v); err != nil {
			prob.addf("%v", err)
		}
	}
	var hwm int64
	for _, n := range dep.nodes {
		b, err := procHWM(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		hwm = max(hwm, b)
	}
	var loads []float64
	if traced {
		if loads, err = loadSpecs(ctx, e.root, w, dep, tr); err != nil {
			return nil, err
		}
	}
	account(dep)

	rec, err := recoverPhase(ctx, e, w, seed, tr, g, &prob)
	if err != nil {
		return nil, err
	}
	r.Attempted += rec.attempted
	r.Failed += rec.failed

	ticks := float64(cr.ticks())
	if ticks == 0 {
		return nil, fmt.Errorf("%s: the closed phase verdicted no ticks", w.name)
	}
	// Rates, medians and CPU per tick are taken per window, scaled by the
	// machine's speed in that window, and the median window is reported.
	// The tail needs every sample at once; each is scaled by its window.
	var tps, p50, readP50, srvCPU, cliCPU, speeds, openP50 []float64
	var tail []time.Duration
	for _, win := range cr.windows() {
		if win.ticks == 0 {
			continue
		}
		sp := g.speed(win.from, win.to)
		speeds = append(speeds, sp)
		tps = append(tps, float64(win.ticks)/win.to.Sub(win.from).Seconds()/sp)
		p50 = append(p50, ms(percentile(win.batch, 0.5))*sp)
		srvCPU = append(srvCPU, float64(win.server)/float64(win.ticks)*sp)
		cliCPU = append(cliCPU, float64(win.self)/float64(win.ticks)*sp)
		if len(win.reads) > 0 {
			readP50 = append(readP50, ms(percentile(win.reads, 0.5))*sp)
		}
		for _, l := range win.batch {
			tail = append(tail, time.Duration(float64(l)*sp))
		}
	}
	for _, win := range or.windows() {
		if len(win.batch) > 0 {
			openP50 = append(openP50, ms(percentile(win.batch, 0.5))*g.speed(win.from, win.to))
		}
	}
	n := len(cr.batch)
	speed := medianFloat(speeds)
	r.set("loadgen.cpu_speed", speed, "gauge speed over the closed phase; 1 is the reference machine")
	r.set("ticks_per_s", medianFloat(tps), "median of %d windows; %d batches of %d ticks over %d connections; machine at speed %.2f", len(tps), n, w.batch, conns, speed)
	r.set("batch_p50_ms", medianFloat(p50), "median of %d windows; n=%d", len(p50), n)
	r.set("batch_p99_ms", ms(percentile(tail, 0.99)), "n=%d; highest percentile with >=10 samples beyond it: %s", n, percentileName(tailPercentile(n)))
	r.set("open_p50_ms", medianFloat(openP50), "median of %d windows; n=%d at %g batches/s, timed from due", len(openP50), len(or.lat), w.openRate)
	r.set("read_p50_ms", medianFloat(readP50), "median of %d windows; n=%d reads beside ingest", len(readP50), len(cr.reads))
	r.set("server_cpu_ns_per_tick", medianFloat(srvCPU), "median of %d windows; all cescd processes", len(srvCPU))
	r.set("client_cpu_ns_per_tick", medianFloat(cliCPU), "median of %d windows; the generator process", len(cliCPU))
	r.set("server_rss_mb", float64(hwm)/(1<<20), "max VmHWM over %d node(s); not scaled", len(dep.nodes))
	r.set("recover_s", medianFloat(rec.restarts), "median of %d restarts, each replaying %d sessions x %d ticks", len(rec.restarts), recoverSessions, recoverTicks/w.batch*w.batch)
	r.set("setup_s", medianFloat(setups), "median of %d set-ups", len(setups))

	// Scraped per-layer figures; the gate needs two of them on every run.
	batches := delta(before, after, "cescd_batches_total")
	serverTicks := delta(before, after, "cescd_ticks_total")
	perBatch := func(stage string) float64 {
		return ratio(delta(before, after, stageSum(stage))*1e6, batches)
	}
	laneShare := ratio(delta(before, after, "cescd_lane_group_ticks_total"), serverTicks)
	proxied := delta(before, after, "cescd_cluster_proxied_total")
	switch {
	case w.lanes && laneShare <= 0:
		prob.addf("monitor.lane_tick_share is 0 on %s: its sessions left the lane tier", w.name)
	case !w.lanes && laneShare != 0:
		prob.addf("monitor.lane_tick_share is %g on %s: its sessions reached the lane tier", laneShare, w.name)
	}
	if w.nodes > 1 && (cr.viaProxy == 0 || proxied != float64(cr.viaProxy)) {
		prob.addf("cluster.proxied_share is %g/%d, want 1.0: requests to non-owners were not proxied", proxied, cr.viaProxy)
	}

	if traced {
		decode, enqueue, wait := perBatch("decode"), perBatch("enqueue"), perBatch("queue_wait")
		step, walAppend := perBatch("step"), perBatch("wal_append")
		send, rt, byKind := sendBudget(tr.snapshot())
		unexplained := rt - (decode + enqueue + wait + step + walAppend)
		r.set("client.send_us", send, "mean over %d closed-phase sends", n)
		r.set("client.self_us", send-rt, "NDJSON encode and ack decode")
		r.set("client.retries", float64(retries), "")
		r.set("http.roundtrip_us", rt, "per send, retries included")
		r.set("server.decode_us", decode, "per batch")
		r.set("server.enqueue_us", enqueue, "per batch")
		r.set("server.queue_wait_us", wait, "per batch")
		r.set("server.verdict_us", ratio(delta(before, after, stageSum("verdict"))*1e6, delta(before, after, stageCount("verdict"))), "per read")
		r.set("server.rejected", delta(before, after, "cescd_rejected_total"), "")
		r.set("monitor.step_us", step, "per batch")
		r.set("monitor.step_ns_per_tick", ratio(delta(before, after, stageSum("step"))*1e9, serverTicks), "")
		r.set("monitor.lane_tick_share", laneShare, "")
		r.set("wal.append_us", walAppend, "per batch")
		r.set("wal.syncs_per_batch", ratio(delta(before, after, "cescd_wal_syncs_total"), batches), "")
		r.set("wal.bytes_per_tick", rec.bytesPerTick, "journaled by the recovery fill")
		r.set("wal.replay_ms", medianFloat(rec.replayMS), "median over restarts")
		r.set("cluster.proxied_share", ratio(proxied, float64(cr.viaProxy)), "of %d requests sent to non-owners", cr.viaProxy)
		r.set("cluster.replicated_per_batch", ratio(delta(before, after, "cescd_cluster_records_replicated_total"), batches), "")
		proxyUS := 0.0
		if w.nodes > 1 {
			proxyUS = byKind[kindProxied] - byKind[kindProbe]
		}
		r.set("cluster.proxy_us", proxyUS, "proxied round trip minus direct probe round trip")
		r.set("synth.spec_load_ms", medianFloat(loads), "median of %d loads", len(loads))
		r.set("loadgen.late_p50_ms", ms(percentile(or.late, 0.5)), "n=%d", len(or.late))
		r.set("loadgen.late_p99_ms", ms(percentile(or.late, 0.99)), "n=%d", len(or.late))
		r.set("loadgen.open_p99_ms", ms(percentile(lats(or.lat), 0.99)), "n=%d; reported, not gated", len(or.lat))
		tracedTPS := ticks / cr.elapsed().Seconds()
		r.set("loadgen.trace_overhead_pct", 100*(1-tracedTPS/untracedTPS), "traced %.0f vs untraced %.0f ticks/s", tracedTPS, untracedTPS)
		r.set("unexplained_us", unexplained, "round trip not covered by server stages")
		r.budget = fmt.Sprintf("client.send_us %.1f = client.self_us %.1f + stages %.1f [decode %.1f + enqueue %.1f + queue_wait %.1f + step %.1f + wal_append %.1f] + unexplained_us %.1f",
			send, send-rt, decode+enqueue+wait+step+walAppend, decode, enqueue, wait, step, walAppend, unexplained)
		path := filepath.Join(e.out, "spans-"+w.name+".json")
		if err := tr.write(path, w.name, seed); err != nil {
			return nil, err
		}
		r.notes["spans"] = path
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	r.Problems = prob
	r.Correct = len(prob) == 0
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retries sums the workers' client-side retry counters.
func (d *deployment) retries() uint64 {
	var n uint64
	for _, wk := range d.workers {
		n += wk.cl.Retries()
	}
	return n
}

// sendBudget reduces the closed-phase spans to the mean wall time of a
// send, the mean round-trip time inside it, and the mean round trip per
// stream kind.
func sendBudget(spans []span) (send, rt float64, byKind map[string]float64) {
	kids := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == "http.roundtrip" && s.Parent != 0 {
			kids[s.Parent] += s.dur()
		}
	}
	var sendSum, rtSum time.Duration
	n := 0
	kindSum, kindN := map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		if s.Name != "client.send" || s.Phase != "closed" {
			continue
		}
		sendSum += s.dur()
		rtSum += kids[s.ID]
		n++
		kindSum[s.Kind] += kids[s.ID]
		kindN[s.Kind]++
	}
	byKind = map[string]float64{}
	for k, v := range kindSum {
		byKind[k] = us(v) / float64(kindN[k])
	}
	if n == 0 {
		return 0, 0, byKind
	}
	return us(sendSum) / float64(n), us(rtSum) / float64(n), byKind
}

// loadSpecs times reloading the workload's spec set through
// client.LoadSpecs with replace=true.
func loadSpecs(ctx context.Context, root string, w workload, d *deployment, tr *tracer) ([]float64, error) {
	var srcs []string
	for _, f := range w.specFiles() {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, string(b))
	}
	var out []float64
	for i := 0; i < specLoads; i++ {
		start := time.Now()
		for _, src := range srcs {
			if _, err := d.owners[0].LoadSpecs(ctx, src, true); err != nil {
				return nil, fmt.Errorf("reloading specs: %w", err)
			}
		}
		out = append(out, ms(time.Since(start)))
		tr.record(span{ID: tr.newID(), Name: "synth.spec_load", Phase: "specs"}, start)
	}
	return out, nil
}

// recovery is what the crash-recovery phase measured.
type recovery struct {
	restarts     []float64 // seconds from re-exec until /readyz answers 200, scaled
	replayMS     []float64 // wal_replay stage time of each restart
	bytesPerTick float64
	attempted    int64
	failed       int64
}

// recoverPhase journals a fixed amount of the workload's traffic into a
// fresh single node, reads every verdict, then SIGKILLs and re-execs the
// node recoverRestarts times. Afterwards the verdicts must equal those
// read before the first kill, and the reference engine's.
func recoverPhase(ctx context.Context, e *env, w workload, seed int64, tr *tracer, g *speedGauge, prob *problems) (recovery, error) {
	var rec recovery
	rw := w.forRecovery()
	mixes, err := newTraffic(e.root, rw, seed)
	if err != nil {
		return rec, err
	}
	dep, _, err := deploy(ctx, e.cescd, e.root, filepath.Join(e.out, "run", w.name+"-recover"), rw, mixes, false)
	if err != nil {
		return rec, err
	}
	defer dep.close()
	fill := recoverTicks / w.batch
	before, err := dep.scrapeAll(ctx)
	if err != nil {
		return rec, err
	}
	err = dep.eachWorker(func(wk *worker) error {
		for i := 1; i < fill; i++ {
			for _, s := range wk.streams {
				if _, err := s.send(ctx, nil, 0, wk.id, "recover"); err != nil {
					return fmt.Errorf("recovery fill: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return rec, err
	}
	after, err := dep.scrapeAll(ctx)
	if err != nil {
		return rec, err
	}
	rec.bytesPerTick = ratio(delta(before, after, "cescd_wal_bytes_total"), float64(len(dep.streams)*(fill-1)*w.batch))
	pre, err := dep.verdicts(ctx)
	if err != nil {
		return rec, err
	}
	n := dep.nodes[0]
	for i := 0; i < recoverRestarts; i++ {
		n.kill()
		for _, wk := range dep.workers {
			wk.tp.base.CloseIdleConnections()
		}
		start := time.Now()
		if err := n.start(e.cescd); err != nil {
			return rec, err
		}
		if err := waitReady(ctx, dep.ctl, n, 60*time.Second); err != nil {
			return rec, err
		}
		rec.restarts = append(rec.restarts, time.Since(start).Seconds()*g.speed(start, time.Now()))
		tr.record(span{ID: tr.newID(), Name: "wal.recover", Phase: "recover"}, start)
		s, err := scrape(ctx, dep.ctl, n.url)
		if err != nil {
			return rec, err
		}
		rec.replayMS = append(rec.replayMS, s[stageSum("wal_replay")]*1e3)
	}
	post, err := dep.verdicts(ctx)
	if err != nil {
		return rec, err
	}
	for i, s := range dep.streams {
		if !reflect.DeepEqual(pre[i], post[i]) {
			prob.addf("session %s: verdicts after recovery differ from those before the kill", s.sess.ID)
		}
		if err := checkVerdicts(s, post[i]); err != nil {
			prob.addf("after recovery: %v", err)
		}
	}
	dep.close()
	rec.attempted, rec.failed = dep.requests()
	return rec, nil
}

// verdicts reads every stream's verdicts, in stream order.
func (d *deployment) verdicts(ctx context.Context) ([]server.VerdictsJSON, error) {
	out := make([]server.VerdictsJSON, len(d.streams))
	for i, s := range d.streams {
		v, err := s.sess.Verdicts(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading verdicts of %s: %w", s.sess.ID, err)
		}
		out[i] = v
	}
	return out, nil
}
