package server

import (
	"runtime"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// promText renders the daemon's metrics in the Prometheus text
// exposition format (version 0.0.4). Label cardinality is bounded by
// construction: `spec` ranges over loaded spec names, `shard` over the
// fixed shard count, and `stage` over the fixed pipeline-stage list.
func (s *Server) promText() []byte {
	snap := s.Metrics()
	w := obs.NewPromWriter()

	counter := func(name, help string, v float64) {
		w.Family(name, "counter", help)
		w.Sample(name, nil, v)
	}
	gauge := func(name, help string, v float64) {
		w.Family(name, "gauge", help)
		w.Sample(name, nil, v)
	}

	w.Family("cescd_build_info", "gauge", "Build identity; always 1, labels carry version and commit.")
	w.Sample("cescd_build_info", []obs.L{{Name: "version", Value: BuildVersion}, {Name: "commit", Value: BuildCommit}}, 1)
	gauge("cescd_start_time_seconds", "Unix time the daemon started.", float64(s.metrics.start.UnixNano())/1e9)
	gauge("cescd_uptime_seconds", "Daemon uptime.", snap.UptimeSec)
	counter("cescd_ticks_total", "Valuation ticks processed.", float64(snap.TicksTotal))
	counter("cescd_batches_total", "Tick batches processed.", float64(snap.BatchesTotal))
	counter("cescd_lane_group_ticks_total", "Ticks stepped via the shared transition table.", float64(snap.LaneGroupTicks))
	counter("cescd_rejected_total", "Ingest requests rejected with 429.", float64(snap.RejectedTotal))
	counter("cescd_accepts_total", "Monitor acceptances across sessions.", float64(snap.AcceptsTotal))
	counter("cescd_violations_total", "Monitor violations across sessions.", float64(snap.ViolationsTotal))
	gauge("cescd_sessions_active", "Live sessions.", float64(snap.SessionsActive))
	w.Family("cescd_session_path", "gauge", "Live sessions by execution path (table or packed).")
	for _, path := range []string{"table", "packed"} {
		w.Sample("cescd_session_path", []obs.L{{Name: "path", Value: path}}, float64(snap.SessionPaths[path]))
	}
	counter("cescd_sessions_created_total", "Sessions created.", float64(snap.SessionsCreated))
	counter("cescd_sessions_evicted_total", "Legacy sum of paged + deleted sessions (pre-split dashboards).", float64(snap.SessionsEvicted))
	counter("cescd_sessions_paged_total", "Sessions checkpointed to the WAL and parked cold.", float64(snap.SessionsPaged))
	counter("cescd_sessions_deleted_total", "Sessions whose state was discarded (delete or WAL-less idle eviction).", float64(snap.SessionsDeleted))
	counter("cescd_sessions_revived_total", "Cold sessions rebuilt from the WAL on first touch.", float64(snap.SessionsRevived))
	gauge("cescd_sessions_cold", "Sessions currently paged out to the WAL.", float64(snap.SessionsCold))
	gauge("cescd_mem_used_bytes", "Estimated bytes held by live session state.", float64(snap.MemUsedBytes))
	gauge("cescd_mem_budget_bytes", "Configured session memory budget (0 = unlimited).", float64(snap.MemBudgetBytes))
	gauge("cescd_governor_level", "Admission governor level (0 ok, 1 shed-wait, 2 throttle-sessions, 3 force-pageout).", float64(snap.GovernorLevel))
	gauge("cescd_governor_score", "Admission governor load score (max of queue, memory, latency fractions).", snap.GovernorScore)
	gauge("cescd_specs_loaded", "Specs loaded in the registry.", float64(snap.SpecsLoaded))

	w.Family("cescd_shed_total", "counter", "Requests degraded by the admission governor, by stage.")
	w.Sample("cescd_shed_total", []obs.L{{Name: "stage", Value: "wait"}}, float64(snap.ShedWait))
	w.Sample("cescd_shed_total", []obs.L{{Name: "stage", Value: "sessions"}}, float64(snap.ShedSessions))
	w.Sample("cescd_shed_total", []obs.L{{Name: "stage", Value: "pageout"}}, float64(snap.ShedPageouts))
	counter("cescd_monitors_quarantined_total", "Monitors fenced off after a step panic.", float64(snap.MonitorsQuarantined))
	counter("cescd_sessions_recovered_total", "Sessions rebuilt from the WAL at startup.", float64(snap.SessionsRecovered))
	counter("cescd_batches_replayed_total", "Journal-tail batches re-applied at startup.", float64(snap.BatchesReplayed))
	counter("cescd_batches_deduped_total", "Duplicate batches absorbed by the seq watermark.", float64(snap.BatchesDeduped))
	counter("cescd_wal_errors_total", "Journal append/snapshot failures.", float64(snap.WALErrors))
	counter("cescd_wal_snapshots_total", "Session checkpoints written.", float64(snap.WALSnapshots))
	counter("cescd_sessions_migrated_out_total", "Sessions handed off to a new owner.", float64(snap.SessionsMigratedOut))
	counter("cescd_sessions_migrated_in_total", "Sessions adopted from a peer (handoff or promotion).", float64(snap.SessionsMigratedIn))
	counter("cescd_trace_spans_total", "Tick-trace spans recorded.", float64(snap.TraceSpans))
	counter("cescd_slow_batches_total", "Batches flagged by the slow-tick watchdog.", float64(snap.SlowBatches))

	if snap.WAL != nil {
		counter("cescd_wal_appends_total", "WAL record appends.", float64(snap.WAL.Appends))
		counter("cescd_wal_syncs_total", "WAL fsyncs issued.", float64(snap.WAL.Syncs))
		counter("cescd_wal_bytes_total", "Bytes appended to the WAL.", float64(snap.WAL.Bytes))
		counter("cescd_wal_replayed_records_total", "WAL records replayed at open.", float64(snap.WAL.Replayed))
		counter("cescd_wal_torn_bytes_total", "Torn trailing bytes discarded at open.", float64(snap.WAL.TornBytes))
		gauge("cescd_journal_bytes", "On-disk bytes of the session journal directory.", float64(snap.JournalBytes))
		gauge("cescd_journal_budget_bytes", "Configured journal disk budget (0 = unlimited).", float64(snap.JournalBudgetBytes))
		counter("cescd_journal_pruned_total", "Cold session journals deleted by the disk budget.", float64(snap.JournalPruned))
	}

	w.Family("cescd_shard_queue_depth", "gauge", "Batches waiting in the shard queue.")
	w.Family("cescd_shard_queue_cap", "gauge", "Shard queue capacity.")
	w.Family("cescd_shard_sessions", "gauge", "Sessions pinned to the shard.")
	w.Family("cescd_shard_ticks_total", "counter", "Ticks processed by the shard.")
	for i, sh := range snap.Shards {
		l := []obs.L{{Name: "shard", Value: strconv.Itoa(i)}}
		w.Sample("cescd_shard_queue_depth", l, float64(sh.QueueDepth))
		w.Sample("cescd_shard_queue_cap", l, float64(sh.QueueCap))
		w.Sample("cescd_shard_sessions", l, float64(sh.Sessions))
		w.Sample("cescd_shard_ticks_total", l, float64(sh.Ticks))
	}

	w.Family("cescd_spec_accepts_total", "counter", "Monitor acceptances per spec (survives session eviction).")
	w.Family("cescd_spec_violations_total", "counter", "Monitor violations per spec (survives session eviction).")
	for _, name := range sortedKeys(snap.PerSpecAccepts, snap.PerSpecViolations) {
		l := []obs.L{{Name: "spec", Value: name}}
		w.Sample("cescd_spec_accepts_total", l, float64(snap.PerSpecAccepts[name]))
		w.Sample("cescd_spec_violations_total", l, float64(snap.PerSpecViolations[name]))
	}

	if len(snap.Tenants) > 0 {
		names := make([]string, 0, len(snap.Tenants))
		for name := range snap.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		w.Family("cescd_tenant_sessions", "gauge", "Sessions per tenant by residency.")
		w.Family("cescd_tenant_ticks_total", "counter", "Ticks accepted per tenant.")
		w.Family("cescd_tenant_rejections_total", "counter", "Quota rejections per tenant by kind.")
		for _, name := range names {
			ts := snap.Tenants[name]
			w.Sample("cescd_tenant_sessions", []obs.L{{Name: "tenant", Value: name}, {Name: "state", Value: "hot"}}, float64(ts.HotSessions))
			w.Sample("cescd_tenant_sessions", []obs.L{{Name: "tenant", Value: name}, {Name: "state", Value: "cold"}}, float64(ts.ColdSessions))
			w.Sample("cescd_tenant_ticks_total", []obs.L{{Name: "tenant", Value: name}}, float64(ts.Ticks))
			for _, kind := range sortedKeys(ts.Rejections) {
				w.Sample("cescd_tenant_rejections_total", []obs.L{{Name: "tenant", Value: name}, {Name: "kind", Value: kind}}, float64(ts.Rejections[kind]))
			}
		}
	}

	bounds := histBoundsSeconds()
	w.Family("cescd_tick_latency_seconds", "histogram", "Enqueue-to-processed latency per tick.")
	counts, sum := s.metrics.latency.buckets()
	w.Histogram("cescd_tick_latency_seconds", nil, bounds, counts, sum)

	w.Family("cescd_stage_latency_seconds", "histogram", "Per-stage pipeline latency.")
	stages := append([]string(nil), stageNames...)
	sort.Strings(stages)
	for _, st := range stages {
		counts, sum := s.metrics.stages[st].buckets()
		w.Histogram("cescd_stage_latency_seconds", []obs.L{{Name: "stage", Value: st}}, bounds, counts, sum)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("cescd_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	gauge("cescd_go_heap_alloc_bytes", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	gauge("cescd_go_heap_objects", "Live heap objects.", float64(ms.HeapObjects))
	counter("cescd_go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	counter("cescd_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(ms.PauseTotalNs)/1e9)

	return w.Bytes()
}

// sortedKeys merges and sorts the key sets of the per-spec maps so the
// exposition is deterministic and a spec with only one kind of verdict
// still gets both series.
func sortedKeys(ms ...map[string]uint64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}
