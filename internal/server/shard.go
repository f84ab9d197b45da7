package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

// batch is one ingest request's worth of ticks, processed atomically in
// arrival order by the owning shard's worker.
type batch struct {
	sess *session
	// packed is the batch's ticks packed over the session vocabulary,
	// one stride of words per tick — every source of ticks (an NDJSON
	// body, a VCD stream) lands here.
	packed *event.PackedBatch
	// raw is the batch as NDJSON: the verbatim request body, or a VCD
	// chunk encoded one StateJSON line per tick. The journal appends it
	// as-is and replay re-decodes it with the ingest decoder.
	raw      []byte
	enqueued time.Time
	// trace is the correlation id of the ingest request ("" when tracing
	// is off); the worker stamps it on queue-wait and step spans so an
	// operator can follow one batch end to end.
	trace string
	// jseq is the journal index assigned to this batch when the session
	// is journaled (0 otherwise); the worker records it as appliedJSeq so
	// snapshots know where the replay tail starts.
	jseq uint64
	// done, when non-nil, is closed after the last tick of the batch has
	// been processed (the ?wait=1 ingest path, the VCD upload, and
	// snapshot barriers).
	done chan struct{}
}

// shard owns a bounded FIFO queue and a single worker goroutine.
// Sessions are pinned to shards by ID hash, so per-session tick order is
// the per-shard queue order — accepted batches are never reordered.
type shard struct {
	idx   int
	queue chan *batch
	ticks atomic.Uint64
}

var (
	// errQueueFull is surfaced as 429 + Retry-After.
	errQueueFull = errors.New("server: shard queue full")
	// errDraining is surfaced as 503: the daemon is shutting down.
	errDraining = errors.New("server: draining")
)

// tryEnqueue performs a non-blocking enqueue onto the session's shard.
func (s *Server) tryEnqueue(b *batch) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.shards[b.sess.shard].queue <- b:
		return nil
	default:
		return errQueueFull
	}
}

// enqueueWait enqueues with backpressure-by-blocking: when the shard
// queue is full it retries until space frees up or the server drains.
// Used by the VCD upload path, where a mid-stream 429 would tear a
// half-accepted trace.
func (s *Server) enqueueWait(b *batch) error {
	for {
		err := s.tryEnqueue(b)
		if err != errQueueFull {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// barrier waits until the session's shard worker has applied every
// batch accepted before it, by enqueueing an empty batch behind them.
func (s *Server) barrier(sess *session) error {
	b := &batch{sess: sess, packed: new(event.PackedBatch), done: make(chan struct{})}
	if err := s.enqueueWait(b); err != nil {
		return err
	}
	<-b.done
	return nil
}

// runShard is the worker loop: it drains the queue until Close closes
// it, which is what makes shutdown graceful — every accepted batch is
// fully processed before Close returns.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	for b := range sh.queue {
		s.process(sh, b)
	}
}

// process applies one batch to its session and updates metrics. Lock
// acquisition, fault planning, counter updates, the latency sample, and
// span writes are all amortized to once per batch; only the engine steps
// themselves run per tick.
func (s *Server) process(sh *shard, b *batch) {
	if s.crashed.Load() {
		// Simulated crash: discard in-memory work, but unblock any
		// handler waiting on the batch.
		if b.done != nil {
			close(b.done)
		}
		return
	}
	sess := b.sess
	dequeued := time.Now()
	queueWait := dequeued.Sub(b.enqueued)
	s.metrics.observeStage(obs.StageQueueWait, queueWait)
	n := b.packed.Len()
	sess.mu.Lock()
	acc, vio, quar := sess.stepBatch(b.packed, s.cfg.TickDelay)
	if acc > 0 {
		s.metrics.acceptsTotal.Add(uint64(acc))
	}
	if vio > 0 {
		s.metrics.violationsTotal.Add(uint64(vio))
	}
	if quar > 0 {
		s.metrics.monitorsQuarantined.Add(uint64(quar))
		_, _ = s.flight.Trip("quarantine", b.trace,
			fmt.Sprintf("session %s: %d monitors quarantined", sess.id, quar))
	}
	s.foldSpecDeltas(sess)
	if b.jseq > 0 {
		sess.appliedJSeq = b.jseq
	}
	sess.mu.Unlock()
	sh.ticks.Add(uint64(n))
	s.metrics.ticksTotal.Add(uint64(n))
	if sess.onTable {
		s.metrics.laneGroupTicks.Add(uint64(n))
	}
	if n > 0 {
		s.metrics.latency.observe(time.Since(b.enqueued))
	}
	stepDur := time.Since(dequeued)
	s.gov.observeStep(stepDur, n)
	s.metrics.observeStage(obs.StageStep, stepDur)
	s.tracer.RecordBatch(sh.idx, []obs.Span{
		{Trace: b.trace, Session: sess.id, Stage: obs.StageQueueWait,
			Start: b.enqueued, Dur: queueWait, Ticks: n},
		{Trace: b.trace, Session: sess.id, Stage: obs.StageStep,
			Start: dequeued, Dur: stepDur, Ticks: n},
	})
	if s.watchdog.Observe(stepDur, n, b.trace, sess.id, sh.idx) {
		_, _ = s.flight.Trip("slow_tick", b.trace,
			fmt.Sprintf("session %s shard %d: %d ticks in %s", sess.id, sh.idx, n, stepDur))
	}
	sess.touch()
	s.metrics.batchesTotal.Add(1)
	if b.done != nil {
		close(b.done)
	}
}

// foldSpecDeltas folds per-spec verdict deltas into daemon-lifetime
// counters — the engines' own totals die with the session on eviction,
// the daemon's do not. Caller holds sess.mu.
func (s *Server) foldSpecDeltas(sess *session) {
	for _, sm := range sess.mons {
		st := sm.eng.Stats()
		da, dv := uint64(st.Accepts)-sm.reportedAccepts, uint64(st.Violations)-sm.reportedViolations
		if da > 0 || dv > 0 {
			s.metrics.addSpecCounts(sm.spec, da, dv)
			sm.reportedAccepts, sm.reportedViolations = uint64(st.Accepts), uint64(st.Violations)
		}
	}
}
