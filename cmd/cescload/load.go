package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// conns is how many connections the generator drives: one per worker,
// matching the two cores of the machine the bounds were measured on.
const conns = 2

// readEvery makes each worker issue one read after every readEvery-th
// acknowledged batch of the closed phase.
const readEvery = 8

// probeEvery makes every probeEvery-th closed-phase send of a traced
// ring_proxy run go straight to a session its entry node owns, giving the
// no-proxy baseline behind cluster.proxy_us.
const probeEvery = 16

// mixTraffic is one mix's generated input for a run.
type mixTraffic struct {
	mix
	pool    [][]server.StateJSON
	ref     *reference
	offsets []int // pool offset of each of the mix's sessions
}

// newTraffic draws a run's inputs from its seed: each mix's batch pool
// and each session's starting offset into it.
func newTraffic(root string, w workload, seed int64) ([]*mixTraffic, error) {
	mons, err := loadMonitors(root, w.specFiles())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*mixTraffic
	for _, m := range w.mixes {
		mon, ok := mons[m.spec]
		if !ok {
			return nil, fmt.Errorf("%s: no chart %s in %s", w.name, m.spec, m.file)
		}
		pool, err := makePool(m, w.batch, rng.Int63())
		if err != nil {
			return nil, err
		}
		mt := &mixTraffic{mix: m, pool: pool, ref: newReference(mon, m.mode, pool)}
		for i := 0; i < m.sessions; i++ {
			mt.offsets = append(mt.offsets, rng.Intn(poolBatches))
		}
		out = append(out, mt)
	}
	return out, nil
}

// stream is one session's ordered tick stream. Only its worker sends on
// it, so the session's ?seq numbers arrive in order.
type stream struct {
	mix    *mixTraffic
	sess   *client.Session
	offset int
	acked  int  // batches acknowledged, the warm-up batch included
	broken bool // a send failed: its batch may or may not have been applied
	owner  int  // node that owns the session
	kind   string
}

// Stream kinds, used to split ring_proxy spans.
const (
	kindDirect  = "direct"
	kindProxied = "proxied"
	kindProbe   = "probe"
)

// send posts the stream's next batch with ?wait=1, so the call returns
// once the batch is verdicted.
func (s *stream) send(ctx context.Context, tr *tracer, parent uint64, worker int, phase string) (int, error) {
	batch := s.mix.pool[(s.offset+s.acked)%len(s.mix.pool)]
	id := tr.newID()
	if tr != nil {
		ctx = withSpan(ctx, id)
	}
	start := time.Now()
	_, err := s.sess.SendTicks(ctx, batch, true)
	tr.record(span{ID: id, Parent: parent, Name: "client.send", Phase: phase, Kind: s.kind, Worker: worker, Ticks: len(batch)}, start)
	if err != nil {
		s.broken = true
		return 0, err
	}
	s.acked++
	return len(batch), nil
}

// read fetches the stream's verdicts, or its diagnostics.
func (s *stream) read(ctx context.Context, tr *tracer, worker int, diagnostics bool) error {
	id := tr.newID()
	if tr != nil {
		ctx = withSpan(ctx, id)
	}
	start := time.Now()
	var err error
	if diagnostics {
		_, err = s.sess.Diagnostics(ctx)
	} else {
		_, err = s.sess.Verdicts(ctx)
	}
	tr.record(span{ID: id, Name: "client.read", Phase: "closed", Kind: s.kind, Worker: worker}, start)
	return err
}

// worker owns one connection to one node and the streams sent over it.
type worker struct {
	id      int
	entry   int // node the worker's connection goes to
	tp      *transport
	cl      *client.Client
	streams []*stream
	probe   *stream
	next    int // round-robin cursor over streams
}

// pick returns the next stream that has not failed, or nil.
func (wk *worker) pick() *stream {
	for range wk.streams {
		s := wk.streams[wk.next%len(wk.streams)]
		wk.next++
		if !s.broken {
			return s
		}
	}
	return nil
}

// deployment is a running set of cescd nodes with sessions created and
// warmed up.
type deployment struct {
	nodes   []*daemon
	ctl     *http.Client     // readiness polls and scrapes
	owners  []*client.Client // per-node API clients: session creates, spec loads
	api     []*transport     // their counting transports
	workers []*worker
	streams []*stream
}

// newTransport returns a counting transport. Keep-alive transports serve
// the workers, one connection each; the setup clients close every
// connection after use, so during a load phase the generator holds
// exactly conns connections.
func newTransport(worker int, keepAlive bool) *transport {
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	if !keepAlive {
		base = &http.Transport{DisableKeepAlives: true, DisableCompression: true}
	}
	return &transport{base: base, worker: worker}
}

func newClient(url string, tp *transport, seed int64) *client.Client {
	return client.New(client.Options{
		BaseURL:        url,
		HTTPClient:     &http.Client{Transport: tp},
		RequestTimeout: 30 * time.Second,
		Seed:           seed,
	})
}

// deploy starts the workload's nodes in a fresh dir, creates its sessions
// and acknowledges one warm-up batch per session. It returns the set-up
// time: from the first exec until the last warm-up batch is verdicted.
// With probes (traced ring_proxy runs), each worker also gets a session
// owned by its own entry node.
func deploy(ctx context.Context, bin, root, dir string, w workload, mixes []*mixTraffic, probes bool) (*deployment, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &deployment{ctl: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}}
	var specs, peers []string
	for _, f := range w.specFiles() {
		specs = append(specs, filepath.Join(root, f))
	}
	for i := 0; i < w.nodes; i++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		name := "n" + strconv.Itoa(i)
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-specs", strings.Join(specs, ",")}
		if w.shards > 0 {
			args = append(args, "-shards", strconv.Itoa(w.shards))
		}
		if w.fsync != "" {
			args = append(args, "-wal-dir", filepath.Join(dir, name, "wal"), "-fsync", w.fsync)
		}
		if w.nodes > 1 {
			args = append(args, "-cluster-name", name, "-advertise", url)
		}
		d.nodes = append(d.nodes, &daemon{name: name, url: url, args: args, log: filepath.Join(dir, name+".log")})
		peers = append(peers, name+"="+url)
	}
	if w.nodes > 1 {
		for _, n := range d.nodes {
			n.args = append(n.args, "-peers", strings.Join(peers, ","))
		}
	}

	start := time.Now()
	for _, n := range d.nodes {
		if err := n.start(bin); err != nil {
			d.close()
			return nil, 0, err
		}
	}
	for _, n := range d.nodes {
		if err := waitReady(ctx, d.ctl, n, 60*time.Second); err != nil {
			d.close()
			return nil, 0, err
		}
	}
	if err := d.createSessions(ctx, mixes, probes); err != nil {
		d.close()
		return nil, 0, err
	}
	if err := d.warmUp(ctx); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// createSessions creates every session on its owner node and hands it to
// a worker. On a single node the workers alternate. On a ring, worker i's
// connection goes to node i and carries only sessions other nodes own,
// so every batch it posts takes the proxy hop.
func (d *deployment) createSessions(ctx context.Context, mixes []*mixTraffic, probes bool) error {
	for i, n := range d.nodes {
		tp := newTransport(-1, false)
		d.api = append(d.api, tp)
		d.owners = append(d.owners, newClient(n.url, tp, int64(i)+100))
	}
	for i := 0; i < conns; i++ {
		entry := 0
		if len(d.nodes) > 1 {
			entry = i
		}
		tp := newTransport(i, true)
		d.workers = append(d.workers, &worker{id: i, entry: entry, tp: tp, cl: newClient(d.nodes[entry].url, tp, int64(i)+1)})
	}
	create := func(mt *mixTraffic, offset, owner int) (*stream, error) {
		sess, err := d.owners[owner].CreateSessionDiag(ctx, mt.mode, mt.diag, mt.spec)
		if err != nil {
			return nil, fmt.Errorf("creating %s session on %s: %w", mt.spec, d.nodes[owner].name, err)
		}
		return &stream{mix: mt, sess: sess, offset: offset, owner: owner}, nil
	}
	g := 0
	for _, mt := range mixes {
		for _, off := range mt.offsets {
			s, err := create(mt, off, g%len(d.nodes))
			if err != nil {
				return err
			}
			wk := d.workers[g%conns]
			if len(d.nodes) > 1 {
				// Owned by node 0 or 1: the other worker's node proxies it.
				// Owned by a third node: either worker's does.
				switch s.owner {
				case 0:
					wk = d.workers[1]
				case 1:
					wk = d.workers[0]
				default:
					wk = d.workers[(g/len(d.nodes))%conns]
				}
			}
			wk.adopt(s, len(d.nodes))
			d.streams = append(d.streams, s)
			g++
		}
	}
	if probes && len(d.nodes) > 1 {
		for _, wk := range d.workers {
			s, err := create(mixes[0], mixes[0].offsets[0], wk.entry)
			if err != nil {
				return err
			}
			s.sess = wk.cl.Resume(s.sess.ID, 1)
			s.kind = kindProbe
			wk.probe = s
			d.streams = append(d.streams, s)
		}
	}
	return nil
}

// adopt rebinds a created session to the worker's own client, starting
// its sequence numbers at 1.
func (wk *worker) adopt(s *stream, nodes int) {
	s.sess = wk.cl.Resume(s.sess.ID, 1)
	s.kind = kindDirect
	if nodes > 1 && s.owner != wk.entry {
		s.kind = kindProxied
	}
	wk.streams = append(wk.streams, s)
}

// warmUp acknowledges the first batch of every stream, both workers at
// once.
func (d *deployment) warmUp(ctx context.Context) error {
	return d.eachWorker(func(wk *worker) error {
		all := wk.streams
		if wk.probe != nil {
			all = append(append([]*stream(nil), all...), wk.probe)
		}
		for _, s := range all {
			if _, err := s.send(ctx, nil, 0, wk.id, "setup"); err != nil {
				return fmt.Errorf("warm-up batch for %s: %w", s.sess.ID, err)
			}
		}
		return nil
	})
}

// traceWith makes the workers' transports record round-trip spans into tr
// (nil stops recording). Call it only between phases, while no worker
// goroutine runs.
func (d *deployment) traceWith(tr *tracer) {
	for _, wk := range d.workers {
		wk.tp.tr = tr
	}
}

// eachWorker runs f on every worker concurrently and returns the first
// error.
func (d *deployment) eachWorker(f func(*worker) error) error {
	errs := make([]error, len(d.workers))
	var wg sync.WaitGroup
	for i, wk := range d.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = f(wk)
		}(i, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close kills every node and drops idle connections.
func (d *deployment) close() {
	for _, n := range d.nodes {
		n.kill()
	}
	for _, wk := range d.workers {
		wk.tp.base.CloseIdleConnections()
	}
}

// requests sums the attempts and failures of every counting transport.
func (d *deployment) requests() (attempted, failed int64) {
	tps := append([]*transport(nil), d.api...)
	for _, wk := range d.workers {
		tps = append(tps, wk.tp)
	}
	for _, tp := range tps {
		attempted += tp.attempted.Load()
		failed += tp.failed.Load()
	}
	return attempted, failed
}

// scrapeAll takes one Prometheus scrape of every node.
func (d *deployment) scrapeAll(ctx context.Context) (fleetScrape, error) {
	out := make(fleetScrape, len(d.nodes))
	for i, n := range d.nodes {
		s, err := scrape(ctx, d.ctl, n.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// serverCPU sums the CPU time of every node process.
func (d *deployment) serverCPU() (time.Duration, error) {
	var total time.Duration
	for _, n := range d.nodes {
		c, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// sample is one timed request: when it finished (closed loop) or came due
// (open loop), how long it took, and how many ticks it had verdicted.
type sample struct {
	at    time.Time
	lat   time.Duration
	ticks int
}

func lats(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

// windowLen slices every measured phase into windows. The machines this
// runs on share cores with other tenants and slow down for seconds at a
// time; reporting the median window keeps a few slow seconds from moving
// a run's figure.
const windowLen = time.Second

// mark is the CPU clocks at one window boundary of a closed phase.
type mark struct {
	at     time.Time
	server time.Duration // every node's user+system CPU
	self   time.Duration // the generator's own
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	batch []sample // send until verdict acknowledged
	reads []sample
	marks []mark // every windowLen from the phase start, and at its end
	// viaProxy counts requests (batches and reads) posted to a node that
	// does not own the session: on a ring, each must be proxied.
	viaProxy int
}

// ticks is the number of ticks the phase verdicted.
func (c closedResult) ticks() int {
	n := 0
	for _, s := range c.batch {
		n += s.ticks
	}
	return n
}

// elapsed is the phase's wall time.
func (c closedResult) elapsed() time.Duration {
	return c.marks[len(c.marks)-1].at.Sub(c.marks[0].at)
}

// window is one slice of a closed phase between consecutive marks.
type window struct {
	from, to     time.Time
	ticks        int
	batch, reads []time.Duration
	server, self time.Duration
}

// windows slices the phase at its marks, assigning each request to the
// window it finished in. A trailing window shorter than half a windowLen
// holds only the requests in flight at the deadline and is dropped.
func (c closedResult) windows() []window {
	ws := make([]window, len(c.marks)-1)
	for i := range ws {
		a, b := c.marks[i], c.marks[i+1]
		ws[i] = window{from: a.at, to: b.at, server: b.server - a.server, self: b.self - a.self}
	}
	find := func(at time.Time) *window {
		i := sort.Search(len(c.marks), func(i int) bool { return c.marks[i].at.After(at) }) - 1
		return &ws[min(max(i, 0), len(ws)-1)]
	}
	for _, s := range c.batch {
		w := find(s.at)
		w.ticks += s.ticks
		w.batch = append(w.batch, s.lat)
	}
	for _, s := range c.reads {
		w := find(s.at)
		w.reads = append(w.reads, s.lat)
	}
	if last := ws[len(ws)-1]; len(ws) > 1 && last.to.Sub(last.from) < windowLen/2 {
		ws = ws[:len(ws)-1]
	}
	return ws
}

// mark reads the CPU clocks of the nodes and of the generator.
func (d *deployment) mark() (mark, error) {
	srv, err := d.serverCPU()
	return mark{at: time.Now(), server: srv, self: selfCPU()}, err
}

// closed runs the closed loop for dur: every worker posts its streams'
// batches back to back, each waiting for its verdict, and after every
// readEvery-th batch reads the last stream's verdicts or diagnostics in
// turn. A sampler marks the CPU clocks every windowLen.
func (d *deployment) closed(ctx context.Context, dur time.Duration, tr *tracer) (closedResult, error) {
	d.traceWith(tr)
	defer d.traceWith(nil)
	first, err := d.mark()
	if err != nil {
		return closedResult{}, err
	}
	until := first.at.Add(dur)
	stop := make(chan struct{})
	type sampled struct {
		marks []mark
		err   error
	}
	done := make(chan sampled, 1)
	go func() {
		var s sampled
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- s
				return
			case <-t.C:
				m, err := d.mark()
				s.marks = append(s.marks, m)
				if s.err == nil {
					s.err = err
				}
			}
		}
	}()
	parts := make([]closedResult, len(d.workers))
	_ = d.eachWorker(func(wk *worker) error {
		r := &parts[wk.id]
		for i := 1; time.Now().Before(until); i++ {
			s := wk.pick()
			if wk.probe != nil && tr != nil && i%probeEvery == 0 {
				s = wk.probe
			}
			if s == nil || ctx.Err() != nil {
				return nil
			}
			t0 := time.Now()
			n, err := s.send(ctx, tr, 0, wk.id, "closed")
			if err != nil {
				continue
			}
			now := time.Now()
			r.batch = append(r.batch, sample{at: now, lat: now.Sub(t0), ticks: n})
			if s.kind == kindProxied {
				r.viaProxy++
			}
			if len(r.batch)%readEvery == 0 {
				t0 := time.Now()
				if s.read(ctx, tr, wk.id, len(r.batch)%(2*readEvery) == 0) == nil {
					now := time.Now()
					r.reads = append(r.reads, sample{at: now, lat: now.Sub(t0)})
					if s.kind == kindProxied {
						r.viaProxy++
					}
				}
			}
		}
		return nil
	})
	close(stop)
	s := <-done
	last, err := d.mark()
	if s.err != nil {
		err = s.err
	}
	out := closedResult{marks: append(append([]mark{first}, s.marks...), last)}
	for _, p := range parts {
		out.batch = append(out.batch, p.batch...)
		out.reads = append(out.reads, p.reads...)
		out.viaProxy += p.viaProxy
	}
	return out, err
}

// openResult is what one open-loop phase measured.
type openResult struct {
	start time.Time
	lat   []sample        // from due time until verdict acknowledged
	late  []time.Duration // from due time until the request was sent
}

// windows slices the open phase into windowLen windows of the schedule,
// assigning each request to the window it came due in.
func (o openResult) windows() []window {
	var ws []window
	for _, s := range o.lat {
		i := int(s.at.Sub(o.start) / windowLen)
		for len(ws) <= i {
			from := o.start.Add(time.Duration(len(ws)) * windowLen)
			ws = append(ws, window{from: from, to: from.Add(windowLen)})
		}
		ws[i].batch = append(ws[i].batch, s.lat)
	}
	return ws
}

// open runs the open loop at the workload's fixed rate for dur. Each
// worker owns every other slot of the schedule and sends on its own
// connection; a slot that comes due while its worker is still busy waits,
// and that wait is part of its latency.
func (d *deployment) open(ctx context.Context, dur time.Duration, rate float64, tr *tracer) openResult {
	d.traceWith(tr)
	defer d.traceWith(nil)
	start := time.Now()
	until := start.Add(dur)
	slot := time.Duration(float64(time.Second) / rate)
	parts := make([]openResult, len(d.workers))
	_ = d.eachWorker(func(wk *worker) error {
		lat, late, _ := openLoop(ctx, start.Add(time.Duration(wk.id)*slot), conns*slot, until, func(due time.Time) error {
			s := wk.pick()
			if s == nil {
				return fmt.Errorf("worker %d: every stream failed", wk.id)
			}
			id := tr.newID()
			_, err := s.send(ctx, tr, id, wk.id, "open")
			tr.record(span{ID: id, Name: "loadgen.open", Phase: "open", Kind: s.kind, Worker: wk.id}, due)
			return err
		})
		parts[wk.id] = openResult{lat: lat, late: late}
		return nil
	})
	out := openResult{start: start}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
	}
	return out
}

// openLoop calls send once per slot of a fixed schedule — slot j is due at
// start + j·interval — until the schedule reaches until. Each call is
// timed from its due time, not from when it was sent, so a stall shows in
// the latency of every request that came due during it rather than
// thinning the load (coordinated omission). late records how far behind
// schedule each call was sent.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, until time.Time, send func(due time.Time) error) (lat []sample, late []time.Duration, failed int) {
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if !due.Before(until) || ctx.Err() != nil {
			return lat, late, failed
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return lat, late, failed
			case <-t.C:
			}
		}
		late = append(late, time.Since(due))
		if err := send(due); err != nil {
			failed++
			continue
		}
		lat = append(lat, sample{at: due, lat: time.Since(due)})
	}
}
