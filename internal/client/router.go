package client

// Router is the ring-aware face of the client: it fetches the cluster's
// consistent-hash ring from GET /cluster/ring, computes the session
// owner locally with the same hash the nodes use, and sends each call
// straight to the owner. Requests opt into redirect routing
// (X-Cesc-Route: redirect), so a node that disagrees answers 307 with
// the owner's URL instead of proxying — the router follows the
// redirect, refreshes its ring, and stays one-hop in steady state.
// Transient 409s (session mid-handoff or mid-promotion) are paced by
// Retry-After and retried against the freshly refreshed ring, which is
// what carries a tick stream across a live migration or a failover
// without the caller noticing.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// RouterOptions tunes a Router.
type RouterOptions struct {
	// Seeds are node base URLs used to bootstrap (and re-bootstrap)
	// ring discovery; at least one is required.
	Seeds []string
	// Client is the per-node client template; BaseURL, HTTPClient, and
	// ExtraHeader are overwritten per member.
	Client Options
	// MaxHops bounds redirect/refresh hops per call (default 4).
	MaxHops int
	// RefreshEvery re-fetches the ring in the background; 0 refreshes
	// only on demand (first use and routing misses).
	RefreshEvery time.Duration
}

// Router routes session calls to their ring owner.
type Router struct {
	opts RouterOptions

	mu      sync.Mutex
	ring    *cluster.Ring
	clients map[string]*Client // by base URL

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router over the given seed nodes. The first ring
// fetch happens lazily, so constructing a router is cheap and a dead
// seed only costs its caller a refresh error.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("cescd: router needs at least one seed URL")
	}
	if opts.MaxHops <= 0 {
		opts.MaxHops = 4
	}
	r := &Router{
		opts:    opts,
		clients: make(map[string]*Client),
		stop:    make(chan struct{}),
	}
	if opts.RefreshEvery > 0 {
		r.wg.Add(1)
		go r.refreshLoop()
	}
	return r, nil
}

// Close stops the background refresh loop, if any.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Router) refreshLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.RefreshEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = r.Refresh(ctx)
			cancel()
		}
	}
}

// Refresh fetches the ring from every known node (current members plus
// seeds) and keeps the newest view — highest epoch, fingerprint as the
// tie-break, exactly the rule the nodes themselves use.
func (r *Router) Refresh(ctx context.Context) error {
	urls := map[string]bool{}
	for _, s := range r.opts.Seeds {
		urls[strings.TrimRight(s, "/")] = true
	}
	r.mu.Lock()
	if r.ring != nil {
		for _, m := range r.ring.Members() {
			urls[m.URL] = true
		}
	}
	r.mu.Unlock()

	var best *cluster.Ring
	var lastErr error
	for u := range urls {
		var info cluster.RingInfo
		if err := r.clientAt(u).do(ctx, http.MethodGet, "/cluster/ring", nil, &info); err != nil {
			lastErr = err
			continue
		}
		candidate := cluster.NewRingFromInfo(info)
		if candidate.Len() == 0 {
			continue
		}
		if best == nil || candidate.Epoch() > best.Epoch() ||
			(candidate.Epoch() == best.Epoch() && candidate.Fingerprint() > best.Fingerprint()) {
			best = candidate
		}
	}
	if best == nil {
		return fmt.Errorf("cescd: no node answered a ring fetch: %w", lastErr)
	}
	r.mu.Lock()
	cur := r.ring
	if cur == nil || best.Epoch() > cur.Epoch() ||
		(best.Epoch() == cur.Epoch() && best.Fingerprint() > cur.Fingerprint()) {
		r.ring = best
	}
	r.mu.Unlock()
	return nil
}

// Ring returns the router's current view (nil before the first
// successful refresh).
func (r *Router) Ring() *cluster.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// clientAt returns (building if needed) the client for a node URL. Each
// member client opts into redirect routing and never auto-follows, so a
// 307 comes back to the router as an *APIError with the owner's URL.
func (r *Router) clientAt(baseURL string) *Client {
	baseURL = strings.TrimRight(baseURL, "/")
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[baseURL]; ok {
		return c
	}
	opts := r.opts.Client
	opts.BaseURL = baseURL
	opts.ExtraHeader = http.Header{cluster.HeaderRoute: []string{"redirect"}}
	if opts.HTTPClient == nil {
		timeout := opts.RequestTimeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		opts.HTTPClient = &http.Client{
			Timeout: timeout,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	c := New(opts)
	r.clients[baseURL] = c
	return c
}

// ownerURL picks the node a session call should go to: the ring owner
// when a ring is known, the first seed otherwise.
func (r *Router) ownerURL(id string) string {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	if ring != nil {
		if owner, ok := ring.Owner(id); ok {
			return owner.URL
		}
	}
	return r.opts.Seeds[0]
}

// anyURL returns some reachable-looking node for non-session calls.
func (r *Router) anyURL() string { return r.ownerURL("") }

// do routes one call: send to the computed owner, follow a 307 to the
// node the cluster says owns the session, and on transient routing
// misses (409 with pacing, vanished session on a stale node) refresh
// the ring and try again, up to MaxHops.
func (r *Router) do(ctx context.Context, method, path, key string, body []byte, out any) error {
	target := r.ownerURL(key)
	var lastErr error
	for hop := 0; hop < r.opts.MaxHops; hop++ {
		err := r.clientAt(target).do(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			// Network-level failure after the member client's own
			// retries: the node is likely gone. Refresh and re-route.
			if ctx.Err() != nil {
				return err
			}
			_ = r.Refresh(ctx)
			next := r.ownerURL(key)
			if next == target {
				return err
			}
			target = next
			continue
		}
		switch apiErr.Code {
		case http.StatusTemporaryRedirect:
			if apiErr.Location == "" {
				return err
			}
			if apiErr.RetryAfter > 0 {
				if !sleepCtx(ctx, apiErr.RetryAfter) {
					return ctx.Err()
				}
			}
			target = baseOf(apiErr.Location)
			// The redirecting node knows a newer topology than we do.
			_ = r.Refresh(ctx)
		case http.StatusConflict, http.StatusNotFound:
			// Mid-handoff (409, already paced by the member client's
			// retry loop) or a stale view pointing at a node that no
			// longer holds the session (404). Refresh and re-route.
			if apiErr.RetryAfter > 0 {
				if !sleepCtx(ctx, apiErr.RetryAfter) {
					return ctx.Err()
				}
			}
			_ = r.Refresh(ctx)
			next := r.ownerURL(key)
			if next == target && apiErr.Code == http.StatusNotFound {
				return err // same owner, really no such session
			}
			target = next
		default:
			return err
		}
	}
	return fmt.Errorf("cescd: routing %s %s: gave up after %d hops: %w", method, path, r.opts.MaxHops, lastErr)
}

// baseOf strips the path from a Location URL, leaving the node base.
func baseOf(loc string) string {
	rest := loc
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	} else {
		return loc
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return loc[:len(loc)-len(rest)+i]
	}
	return loc
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// LoadSpecs loads .cesc source on every current ring member (specs are
// per-node state; a session can land anywhere).
func (r *Router) LoadSpecs(ctx context.Context, src string, replace bool) error {
	if r.Ring() == nil {
		if err := r.Refresh(ctx); err != nil {
			return err
		}
	}
	ring := r.Ring()
	if ring == nil {
		return fmt.Errorf("cescd: no ring view")
	}
	for _, m := range ring.Members() {
		if _, err := r.clientAt(m.URL).LoadSpecs(ctx, src, replace); err != nil {
			var apiErr *APIError
			// Tolerate re-loads: the member already has the spec.
			if errors.As(err, &apiErr) && apiErr.Code == http.StatusConflict {
				continue
			}
			return fmt.Errorf("cescd: loading specs on %s: %w", m.Name, err)
		}
	}
	return nil
}

// CreateSession opens a session on any live node; the node mints an ID
// it owns under the current ring, so the new session starts at home.
// A 429 with X-Cesc-Shed: sessions is terminal to the member client, so
// an overloaded node costs one attempt here and the loop hops to the
// next member — the routed view of "the ring steers creation to cooler
// nodes". A quota refusal (X-Cesc-Quota: sessions) hops too, which is
// correct while quotas are per-node state.
func (r *Router) CreateSession(ctx context.Context, mode string, specs ...string) (*RoutedSession, error) {
	if r.Ring() == nil {
		_ = r.Refresh(ctx)
	}
	urls := []string{}
	if ring := r.Ring(); ring != nil {
		for _, m := range ring.Members() {
			urls = append(urls, m.URL)
		}
	}
	urls = append(urls, r.opts.Seeds...)
	var lastErr error
	for _, u := range urls {
		sess, err := r.clientAt(u).CreateSession(ctx, mode, specs...)
		if err != nil {
			lastErr = err
			continue
		}
		return &RoutedSession{r: r, ID: sess.ID}, nil
	}
	return nil, fmt.Errorf("cescd: creating session: %w", lastErr)
}

// RoutedSession is a session handle that follows its session around the
// cluster: every call is routed to the current ring owner, and the
// sequence counter lives here so exactly-once ingest survives moves.
type RoutedSession struct {
	r         *Router
	ID        string
	seq       atomic.Uint64
	lastTrace atomic.Value // string: trace id of the last SendTicks
}

// LastTrace reports the trace id the most recent SendTicks traveled
// under ("" before the first) — the handle into GET /cluster/trace?trace=…,
// which merges that trace's spans across every node it touched.
func (s *RoutedSession) LastTrace() string {
	id, _ := s.lastTrace.Load().(string)
	return id
}

// Resume rebinds a routed handle to an existing session; nextSeq is the
// first unused sequence number (pass lastAcked+1).
func (r *Router) Resume(id string, nextSeq uint64) *RoutedSession {
	s := &RoutedSession{r: r, ID: id}
	if nextSeq > 0 {
		s.seq.Store(nextSeq - 1)
	}
	return s
}

// SendTicks streams one batch to the session's current owner.
func (s *RoutedSession) SendTicks(ctx context.Context, ticks []server.StateJSON, wait bool) (TickAck, error) {
	body := server.AppendTicks(nil, ticks)
	// Every routed batch travels under one trace id (the caller's via
	// WithTraceID, or a minted one), stable across redirects, retries,
	// and failovers — so a single id stitches the batch's path through
	// the whole fleet.
	traceID := TraceIDFrom(ctx)
	if traceID == "" {
		traceID = s.r.clientAt(s.r.ownerURL(s.ID)).newTraceID()
		ctx = WithTraceID(ctx, traceID)
	}
	s.lastTrace.Store(traceID)
	seq := s.seq.Add(1)
	path := fmt.Sprintf("/sessions/%s/ticks?seq=%d", s.ID, seq)
	if wait {
		path += "&wait=1"
	}
	var ack TickAck
	if err := s.r.do(ctx, http.MethodPost, path, s.ID, body, &ack); err != nil {
		return TickAck{}, err
	}
	return ack, nil
}

// Verdicts fetches the session's accumulated verdicts from its owner.
func (s *RoutedSession) Verdicts(ctx context.Context) (server.VerdictsJSON, error) {
	var v server.VerdictsJSON
	err := s.r.do(ctx, http.MethodGet, "/sessions/"+s.ID+"/verdicts", s.ID, nil, &v)
	return v, err
}

// Info fetches the session's current info from its owner.
func (s *RoutedSession) Info(ctx context.Context) (server.SessionInfoJSON, error) {
	var info server.SessionInfoJSON
	err := s.r.do(ctx, http.MethodGet, "/sessions/"+s.ID, s.ID, nil, &info)
	return info, err
}

// Delete tears the session down wherever it lives.
func (s *RoutedSession) Delete(ctx context.Context) error {
	return s.r.do(ctx, http.MethodDelete, "/sessions/"+s.ID, s.ID, nil, nil)
}
