// Command cescd is the monitor-as-a-service daemon: it loads .cesc
// specifications, synthesizes their assertion monitors, and serves an
// HTTP API for streaming valuation ticks against them — the paper's
// Fig. 4 verification flow turned into a long-running service for live
// trace streams.
//
// Usage:
//
//	cescd [flags]
//
// Flags:
//
//	-addr :8080          listen address
//	-specs PATH[,PATH]   .cesc files or directories to load at startup
//	-shards N            worker goroutines (sessions pinned by ID hash)
//	-queue N             per-shard queue depth in batches (full => 429)
//	-idle-ttl DUR        evict sessions idle longer than this (0 = never)
//	-max-batch N         max ticks accepted per request
//	-tick-delay DUR      artificial per-tick delay (load testing only)
//	-wal-dir PATH        journal sessions here and recover them at startup
//	-fsync MODE          WAL durability: always | interval | never
//	-fsync-every DUR     sync period for -fsync interval
//	-snapshot-every N    checkpoint monitor state every N journaled batches
//	                     (negative disables snapshots)
//	-trace-depth N       per-shard tick-trace ring depth (0 disables tracing)
//	-slow-tick DUR       warn when a batch's per-tick step time exceeds this
//	-debug-addr ADDR     serve net/http/pprof and expvar on a second listener
//	-flightrec-window DUR  flight recorder lookback window (default 30s)
//	-flightrec-dir PATH    write black-box dumps here on trips and SIGQUIT
//	-node-name NAME        node name stamped on spans (standalone mode;
//	                       cluster mode uses -cluster-name)
//
// Overload, quotas, and paging (see the README section of that name):
//
//	-mem-budget SIZE        session memory budget (e.g. 256m, 2g); over it,
//	                        coldest sessions page out to the WAL (0 = unlimited)
//	-journal-budget SIZE    journal disk budget; over it, cold sessions'
//	                        journals are pruned oldest-first (0 = unlimited)
//	-tenant-header NAME     request header carrying the tenant key
//	                        (default X-Cesc-Tenant; session-ID prefix otherwise)
//	-quota-tick-rate N      per-tenant sustained ticks/sec (token bucket)
//	-quota-tick-burst N     per-tenant tick burst allowance (default = rate)
//	-quota-max-sessions N   per-tenant open session cap (hot + cold)
//	-quota-hot-sessions N   per-tenant hot session cap (excess pages out)
//	-governor-latency DUR   per-tick step latency treated as saturation
//	-cold-start             register recovered sessions cold, revive on demand
//
// Clustering (see the README "Clustering" section):
//
//	-cluster-name NAME    enable cluster mode under this member name
//	-advertise URL        base URL peers and clients reach this node at
//	-peers NAME=URL,...   static membership (self included automatically)
//	-join URL[,URL]       join an existing cluster via any listed node
//	-vnodes N             virtual nodes per member on the hash ring
//	-refresh-every DUR    ring refresh / failure probe period
//	-fail-after N         failed probes before declaring a peer dead
//	-replicate-every DUR  WAL standby shipping period
//	-standby-dir PATH     standby journal root (default <wal-dir>.standby)
//	-drain                on SIGTERM, migrate sessions away before exit
//
// Endpoints: GET /healthz (liveness), GET /readyz (readiness),
// GET /metrics (Prometheus text; JSON with Accept: application/json),
// GET|POST /specs, POST|GET /sessions, GET|DELETE /sessions/{id},
// POST /sessions/{id}/ticks (NDJSON; ?wait=1), POST /sessions/{id}/vcd
// (?props=a,b), GET /sessions/{id}/verdicts, GET /sessions/{id}/diagnostics,
// GET /debug/trace, GET /debug/flightrec; in cluster mode also
// GET /cluster/ring, GET /cluster/status, GET /cluster/trace (fleet-merged
// timeline for one trace id), GET /cluster/metrics (node-labeled federated
// exposition), POST /cluster/{join,leave,adopt,migrate,replicate,drain,
// flush}.
// See the README "Running cescd" and "Observability" sections for the
// tick format and curl examples.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request header, so a client that connects and stalls cannot hold a
// connection open indefinitely. Ticks bodies have their own deadline in
// the server's ingest handler.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	specs := flag.String("specs", "specs", "comma-separated .cesc files or directories to load")
	shards := flag.Int("shards", 4, "worker goroutines")
	queue := flag.Int("queue", 64, "per-shard queue depth (batches)")
	idleTTL := flag.Duration("idle-ttl", 30*time.Minute, "evict sessions idle longer than this (0 disables)")
	maxBatch := flag.Int("max-batch", 65536, "max ticks per ingest request")
	tickDelay := flag.Duration("tick-delay", 0, "artificial per-tick delay (load testing only)")
	walDir := flag.String("wal-dir", "", "session journal directory (empty disables crash recovery)")
	fsync := flag.String("fsync", "interval", "WAL durability: always | interval | never")
	fsyncEvery := flag.Duration("fsync-every", 0, "sync period for -fsync interval (0 = wal default)")
	snapEvery := flag.Int("snapshot-every", 0, "checkpoint every N journaled batches (0 = default, negative disables)")
	traceDepth := flag.Int("trace-depth", 0, "per-shard tick-trace ring depth (0 disables tracing)")
	slowTick := flag.Duration("slow-tick", 0, "warn when a batch's per-tick step time exceeds this (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty disables)")
	flightWindow := flag.Duration("flightrec-window", 30*time.Second, "flight recorder lookback window")
	flightDir := flag.String("flightrec-dir", "", "write flight-recorder dumps here on trips and SIGQUIT (empty disables dumps)")
	nodeName := flag.String("node-name", "", "node name stamped on trace spans (cluster mode uses -cluster-name)")

	memBudget := flag.String("mem-budget", "", "session memory budget, e.g. 256m or 2g (empty = unlimited; needs -wal-dir to page instead of delete)")
	journalBudget := flag.String("journal-budget", "", "journal disk budget, e.g. 10g (empty = unlimited; prunes cold sessions' journals oldest-first)")
	tenantHeader := flag.String("tenant-header", "", "request header carrying the tenant key (default X-Cesc-Tenant)")
	quotaTickRate := flag.Float64("quota-tick-rate", 0, "per-tenant sustained ticks/sec ingest quota (0 = unlimited)")
	quotaTickBurst := flag.Float64("quota-tick-burst", 0, "per-tenant tick burst allowance (0 = same as rate)")
	quotaMaxSessions := flag.Int("quota-max-sessions", 0, "per-tenant open session cap, hot + cold (0 = unlimited)")
	quotaHotSessions := flag.Int("quota-hot-sessions", 0, "per-tenant hot session cap; excess pages out coldest-first (0 = unlimited)")
	governorLatency := flag.Duration("governor-latency", 0, "per-tick step latency the governor treats as saturation (0 = default 100ms)")
	coldStart := flag.Bool("cold-start", false, "register recovered WAL sessions cold (revive on first touch) instead of replaying all at boot")

	clusterName := flag.String("cluster-name", "", "enable cluster mode under this member name")
	advertise := flag.String("advertise", "", "base URL peers reach this node at (cluster mode)")
	peersFlag := flag.String("peers", "", "static membership as name=url[,name=url...] (cluster mode)")
	joinFlag := flag.String("join", "", "join an existing cluster via these comma-separated node URLs")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per ring member (0 = default)")
	refreshEvery := flag.Duration("refresh-every", 2*time.Second, "ring refresh / failure probe period (cluster mode)")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before declaring a peer dead")
	replicateEvery := flag.Duration("replicate-every", 250*time.Millisecond, "WAL standby shipping period (cluster mode)")
	standbyDir := flag.String("standby-dir", "", "standby journal root (default <wal-dir>.standby)")
	drainOnExit := flag.Bool("drain", false, "on SIGTERM, migrate sessions to peers before exiting")
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatalf("cescd: %v", err)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		log.Fatalf("cescd: -mem-budget: %v", err)
	}
	jbudget, err := parseBytes(*journalBudget)
	if err != nil {
		log.Fatalf("cescd: -journal-budget: %v", err)
	}
	srvCfg := server.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		MaxBatchTicks: *maxBatch,
		IdleTTL:       *idleTTL,
		TickDelay:     *tickDelay,
		WALDir:        *walDir,
		Fsync:         policy,
		FsyncEvery:    *fsyncEvery,
		SnapshotEvery: *snapEvery,
		TraceDepth:    *traceDepth,
		SlowTick:      *slowTick,
		NodeName:      *nodeName,
		FlightWindow:  *flightWindow,
		FlightDir:     *flightDir,

		MemBudget:        budget,
		JournalBudget:    jbudget,
		TenantHeader:     *tenantHeader,
		QuotaTickRate:    *quotaTickRate,
		QuotaTickBurst:   *quotaTickBurst,
		QuotaMaxSessions: *quotaMaxSessions,
		QuotaHotSessions: *quotaHotSessions,
		GovernorLatency:  *governorLatency,
		ColdStart:        *coldStart,
	}

	// Cluster mode wraps the server in ring routing + replication; the
	// standalone path keeps the bare server. Either way there is one
	// *server.Server to load specs into and one handler to serve.
	var (
		srv     *server.Server
		node    *cluster.Node
		handler http.Handler
	)
	if *clusterName != "" {
		if *advertise == "" {
			log.Fatalf("cescd: -cluster-name requires -advertise")
		}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("cescd: %v", err)
		}
		sbDir := *standbyDir
		if sbDir == "" && *walDir != "" {
			sbDir = strings.TrimRight(*walDir, "/") + ".standby"
		}
		var joins []string
		for _, u := range strings.Split(*joinFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				joins = append(joins, u)
			}
		}
		node, err = cluster.New(cluster.Config{
			Name:           *clusterName,
			AdvertiseURL:   *advertise,
			Peers:          peers,
			JoinURLs:       joins,
			VNodes:         *vnodes,
			RefreshEvery:   *refreshEvery,
			FailAfter:      *failAfter,
			ReplicateEvery: *replicateEvery,
			StandbyDir:     sbDir,
			Server:         srvCfg,
		})
		if err != nil {
			log.Fatalf("cescd: %v", err)
		}
		srv, handler = node.Server(), node.Handler()
		log.Printf("cescd: cluster member %s at %s (ring epoch %d, %d member(s), standby %s)",
			*clusterName, *advertise, node.Ring().Epoch(), node.Ring().Len(), sbDir)
	} else {
		srv, err = server.New(srvCfg)
		if err != nil {
			log.Fatalf("cescd: %v", err)
		}
		handler = srv.Handler()
	}
	if *walDir != "" {
		m := srv.Metrics()
		log.Printf("cescd: journaling to %s (fsync %s), recovered %d session(s), replayed %d batch(es)",
			*walDir, *fsync, m.SessionsRecovered, m.BatchesReplayed)
	}
	loaded, err := loadSpecs(srv, *specs)
	if err != nil {
		log.Fatalf("cescd: %v", err)
	}
	for _, n := range loaded {
		log.Printf("cescd: loaded spec %s", n)
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	// SIGQUIT dumps the black box on demand — the operator's "what just
	// happened" signal for a daemon that is misbehaving but not dead.
	go func() {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for range quit {
			path, err := srv.FlightRecorder().Dump("sigquit")
			switch {
			case err != nil:
				log.Printf("cescd: flight-recorder dump: %v", err)
			case path == "":
				log.Printf("cescd: flight recorder has no dump dir (-flightrec-dir)")
			default:
				log.Printf("cescd: flight recorder dumped to %s", path)
			}
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if node != nil && *drainOnExit {
			log.Printf("cescd: draining out of the ring")
			moved := node.Drain()
			log.Printf("cescd: migrated %d session(s) to peers", moved)
		}
		log.Printf("cescd: shutting down, draining in-flight ticks")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("cescd: http shutdown: %v", err)
		}
		if node != nil {
			node.Close()
		} else {
			srv.Close()
		}
	}()
	log.Printf("cescd: listening on %s (%d shards, queue %d, %d specs)",
		*addr, *shards, *queue, len(loaded))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cescd: %v", err)
	}
	<-done
	log.Printf("cescd: drained, bye")
}

// parseBytes parses a byte-size flag value: a bare number or one with a
// k / m / g suffix (binary multiples). Empty means 0 (unlimited).
func parseBytes(v string) (int64, error) {
	v = strings.TrimSpace(strings.ToLower(v))
	if v == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "g"):
		mult, v = 1<<30, strings.TrimSuffix(v, "g")
	case strings.HasSuffix(v, "m"):
		mult, v = 1<<20, strings.TrimSuffix(v, "m")
	case strings.HasSuffix(v, "k"):
		mult, v = 1<<10, strings.TrimSuffix(v, "k")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 268435456, 256m, 2g)", v)
	}
	return n * mult, nil
}

// parsePeers parses the -peers flag: name=url pairs, comma-separated.
func parsePeers(list string) ([]cluster.Member, error) {
	var peers []cluster.Member
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, url, ok := strings.Cut(p, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url)", p)
		}
		peers = append(peers, cluster.Member{Name: name, URL: url})
	}
	return peers, nil
}

// serveDebug exposes the Go runtime's profiling surface on a separate
// listener, so production deployments can keep pprof off the public API
// port (bind it to localhost or a management network).
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	log.Printf("cescd: debug listener (pprof, expvar) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("cescd: debug listener: %v", err)
	}
}

// loadSpecs loads every .cesc file named by the comma-separated list of
// files and directories. Multi-clock charts load but cannot back
// sessions; files that fail to compile abort startup.
func loadSpecs(srv *server.Server, list string) ([]string, error) {
	var all []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		var files []string
		if info.IsDir() {
			files, err = filepath.Glob(filepath.Join(p, "*.cesc"))
			if err != nil {
				return nil, err
			}
		} else {
			files = []string{p}
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			names, err := srv.LoadSpecSource(string(src))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			all = append(all, names...)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no specs loaded from %q", list)
	}
	return all, nil
}
