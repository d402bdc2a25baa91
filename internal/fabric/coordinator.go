// Package fabric is the distributed campaign tier: a coordinator that
// shards campaign work across N `zhuyi serve` worker replicas while
// serving warm queries itself from the shared persistent store's
// manifest.
//
// The deployment shape follows the paper's service argument (§3.2) one
// step further than internal/server: rate estimation for a fleet is
// read-heavy — BENCH_replay.json puts a manifest read four orders of
// magnitude under a simulation — so the fabric splits the two regimes.
// The coordinator owns the cheap path: every (scenario, FPR, seed)
// point already archived in the shared store is answered from the
// manifest summary alone, no replica contacted, no artifact decoded.
// Only cold points fan out, partitioned by consistent hashing on the
// scenario spec fingerprint (Ring) so all rate/seed variants of one
// scenario land on the same replica's warm memory cache.
//
// Replica death is absorbed, not propagated: a failed or stalled
// delegation marks the replica unhealthy and re-partitions its
// unanswered points onto the next replica in each point's ring
// sequence (bounded attempts, backed off). Because every replica
// archives fresh runs into the shared store — and store lookups
// refresh from the manifest tail across processes — a re-landed point
// that the dead replica managed to simulate answers from the disk
// tier instead of re-simulating: retries cost zero duplicate
// simulations, which GET /v1/stats on the replicas proves.
//
// The coordinator speaks the exact same HTTP API as a worker
// (server.Routes; docs/api.md), so zhuyi.Client — and everything built
// on it — points at either interchangeably. `zhuyi serve -coordinator
// -replicas URL,URL` wires it to a listener; scripts/fabric_smoke.sh
// is the end-to-end proof and scripts/bench_fabric.sh the scaling
// benchmark (BENCH_fabric.json).
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	zhuyi "repro"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// errCold marks a point the shared manifest cannot answer: the
// coordinator's inner engine runs no simulations, so its injected
// runner returns this sentinel and the caller (the MRF handler)
// delegates to the owning replica instead.
var errCold = errors.New("fabric: point not archived in the shared store")

// Options configures a Coordinator.
type Options struct {
	// Replicas are the worker base URLs (e.g. "http://10.0.0.1:8080").
	// At least one is required; order is cosmetic (placement comes from
	// the hash ring, not the list order).
	Replicas []string
	// Store is the shared persistent store every replica archives into;
	// it backs the coordinator's warm tier and /v1/store endpoints. nil
	// disables the warm tier (every point delegates).
	Store *store.Store
	// Registry resolves scenario names; nil uses scenario.Default().
	Registry *scenario.Registry
	// VirtualNodes is the per-replica vnode count on the ring (0 = 64).
	VirtualNodes int
	// StallTimeout bounds the wait for each point completion during a
	// delegated campaign: a replica that streams nothing for this long
	// is treated as dead and its unanswered points are retried on the
	// next replica in their ring sequence. 0 means 60s.
	StallTimeout time.Duration
	// Retries is how many extra replicas a point is offered after its
	// owner fails (0 = one retry per surviving replica, capped at 2).
	Retries int
	// Backoff is the base delay before each retry wave, scaled by the
	// attempt number. 0 means 200ms.
	Backoff time.Duration
	// MaxCampaignPoints caps points per campaign request (0 = 100000).
	MaxCampaignPoints int
	// HTTPClient overrides the transport used for replica traffic; nil
	// uses http.DefaultClient. The stall watchdog, not a client
	// timeout, bounds campaign streams.
	HTTPClient *http.Client
}

// replicaState is one replica's coordinator-side health/assignment
// counters, surfaced on GET /v1/stats.
type replicaState struct {
	url       string
	healthy   atomic.Bool
	assigned  atomic.Int64
	completed atomic.Int64
	failures  atomic.Int64
}

// Coordinator fans campaign work out to replicas and answers warm
// queries from the shared store manifest. Construct with New; serve
// its Handler with net/http. Safe for concurrent use.
type Coordinator struct {
	ring    *Ring
	eng     *engine.Engine // manifest-only: Peek answers, runs return errCold
	st      *store.Store
	reg     *scenario.Registry
	inner   http.Handler       // a server.Server over eng, for non-fabric routes
	lat     *server.LatencySet // shared with the inner server; /v1/rate lands here
	maxPts  int
	stall   time.Duration
	retries int
	backoff time.Duration

	clients  map[string]*zhuyi.Client
	replicas map[string]*replicaState

	requests  atomic.Int64
	campaigns atomic.Int64
	points    atomic.Int64
	retried   atomic.Int64
	proxied   atomic.Int64
}

// New builds a Coordinator over its replica set.
func New(opts Options) (*Coordinator, error) {
	ring, err := NewRing(opts.Replicas, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = scenario.Default()
	}
	c := &Coordinator{
		ring: ring,
		// The inner engine never simulates: Peek serves the warm tier
		// from the shared manifest, and any job that reaches the runner
		// reports errCold. (Cold MRF probes therefore count as engine
		// Failures here — the price of reusing the engine's batch path
		// as a manifest query planner.)
		eng: engine.New(engine.Options{
			Store:  opts.Store,
			Runner: func(engine.Job) (*sim.Result, error) { return nil, errCold },
		}),
		st:       opts.Store,
		reg:      reg,
		maxPts:   opts.MaxCampaignPoints,
		stall:    opts.StallTimeout,
		retries:  opts.Retries,
		backoff:  opts.Backoff,
		clients:  make(map[string]*zhuyi.Client, len(opts.Replicas)),
		replicas: make(map[string]*replicaState, len(opts.Replicas)),
	}
	if c.maxPts <= 0 {
		c.maxPts = 100_000
	}
	if c.stall <= 0 {
		c.stall = 60 * time.Second
	}
	if c.retries <= 0 {
		c.retries = min(len(opts.Replicas)-1, 2)
	}
	if c.backoff <= 0 {
		c.backoff = 200 * time.Millisecond
	}
	for _, rep := range opts.Replicas {
		cl := zhuyi.NewClient(rep)
		cl.HTTPClient = opts.HTTPClient
		c.clients[rep] = cl
		st := &replicaState{url: rep}
		st.healthy.Store(true) // optimistic until an attempt says otherwise
		c.replicas[rep] = st
	}
	// The latency set is shared with the inner server: requests the
	// coordinator answers locally — /v1/rate above all — record into
	// the same histograms its own /v1/stats reports, proving the rate
	// path never depends on replica health.
	c.lat = server.NewLatencySet()
	c.inner = server.New(server.Options{Engine: c.eng, Registry: reg, MaxCampaignPoints: c.maxPts, Latency: c.lat}).Handler()
	return c, nil
}

// Ring exposes the coordinator's hash ring (tests assert placement
// stability through it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Handler returns the coordinator's HTTP handler. It serves the exact
// route table of a worker (server.Routes): campaign, MRF, and stats
// are fabric-aware; every other route — scenarios, rate, store reads,
// health — is answered locally by the inner manifest-only server.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range server.Routes() {
		var h http.HandlerFunc
		fabricRoute := true
		switch rt.Pattern {
		case "/v1/campaign":
			h = c.handleCampaign
		case "/v1/mrf/{scenario}":
			h = c.handleMRF
		case "/v1/stats":
			h = c.handleStats
		default:
			h = c.inner.ServeHTTP
			fabricRoute = false
		}
		if fabricRoute {
			// Locally-served routes already record through the inner
			// server's wrappers (the shared latency set); only the
			// fabric-aware handlers need their own timing here.
			h = c.lat.Timed(rt.Method+" "+rt.Pattern, h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Pattern, h)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code, data = http.StatusInternalServerError,
			[]byte(fmt.Sprintf("{\"error\": %q}", "response encoding failed: "+err.Error()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// campaignPlan is one validated campaign: the request points plus each
// point's scenario fingerprint (the ring key).
type campaignPlan struct {
	points []server.Point
	scs    []scenario.Scenario
	fps    []string
}

// mergeSink serializes the merged NDJSON output stream and the shared
// answered/stats state that concurrent replica streams mutate.
type mergeSink struct {
	mu       sync.Mutex
	enc      *json.Encoder
	flush    func()
	answered []bool
	agg      server.CampaignStats
	errs     []string
}

func (m *mergeSink) emitLocked(line server.CampaignLine) {
	_ = m.enc.Encode(line)
	m.flush()
}

// point emits one remapped per-point line if its global index has not
// been answered yet (a watchdog-cancelled replica may race its own
// retry; first answer wins, duplicates are dropped).
func (m *mergeSink) point(global int, p server.PointResult) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.answered[global] {
		return false
	}
	m.answered[global] = true
	p.Index = global
	m.emitLocked(server.CampaignLine{Point: &p})
	return true
}

func (m *mergeSink) addStats(s zhuyi.CampaignStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.agg.Executed += s.Executed
	m.agg.CacheHits += s.CacheHits
	m.agg.DiskHits += s.DiskHits
	m.agg.Failures += s.Failures
}

func (m *mergeSink) fail(replica string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errs = append(m.errs, fmt.Sprintf("%s: %v", replica, err))
}

// handleCampaign validates, partitions, fans out, merges, and retries
// one campaign over the replica set.
func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req server.CampaignRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad campaign request: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "campaign has no points")
		return
	}
	if len(req.Points) > c.maxPts {
		writeError(w, http.StatusBadRequest, "campaign has %d points (limit %d)", len(req.Points), c.maxPts)
		return
	}
	plan := campaignPlan{points: req.Points, scs: make([]scenario.Scenario, len(req.Points)), fps: make([]string, len(req.Points))}
	for i, pt := range req.Points {
		sc, ok := c.reg.Lookup(pt.Scenario)
		if !ok {
			writeError(w, http.StatusBadRequest, "point %d: unknown scenario %q (GET /v1/scenarios)", i, pt.Scenario)
			return
		}
		if pt.FPR <= 0 {
			writeError(w, http.StatusBadRequest, "point %d: non-positive fpr %g", i, pt.FPR)
			return
		}
		plan.scs[i] = sc
		plan.fps[i] = c.reg.Fingerprint(pt.Scenario)
	}
	c.campaigns.Add(1)
	c.points.Add(int64(len(req.Points)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sink := &mergeSink{
		enc:      json.NewEncoder(w),
		answered: make([]bool, len(req.Points)),
		agg:      server.CampaignStats{Jobs: len(req.Points)},
	}
	sink.flush = func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	start := time.Now()

	// Warm tier: answer archived points from the shared manifest alone.
	for i, pt := range req.Points {
		if ent, ok := c.eng.Peek(engine.Job{Scenario: plan.scs[i], FPR: pt.FPR, Seed: pt.Seed}); ok {
			pr := pointResultFromEntry(i, pt, ent)
			sink.point(i, pr)
			sink.mu.Lock()
			sink.agg.DiskHits++
			sink.mu.Unlock()
		}
	}

	c.runWaves(r.Context(), plan, sink)

	// Whatever is still unanswered exhausted its retries: emit a
	// per-point error so client outcomes align, then the trailer.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	detail := strings.Join(sink.errs, "; ")
	unanswered := 0
	for i, done := range sink.answered {
		if done {
			continue
		}
		unanswered++
		pt := req.Points[i]
		sink.agg.Failures++
		pr := server.PointResult{
			Index: i, Scenario: pt.Scenario, FPR: pt.FPR, Seed: pt.Seed,
			Error: "no replica answered: " + detail,
		}
		sink.emitLocked(server.CampaignLine{Point: &pr})
	}
	trailer := server.CampaignLine{}
	sink.agg.WallMS = float64(time.Since(start)) / 1e6
	trailer.Stats = &sink.agg
	// Replica failures that retries fully absorbed are stats, not
	// errors: the trailer only carries an error when points went
	// unanswered after the last wave.
	if unanswered > 0 && len(sink.errs) > 0 {
		trailer.Error = "replica failures: " + detail
	}
	sink.emitLocked(trailer)
}

// runWaves delegates every unanswered point, wave by wave: wave k
// offers each point to Sequence(fingerprint)[k], so wave 0 is the
// owner partition and later waves walk each point's ring sequence
// after failures, with backoff between waves.
func (c *Coordinator) runWaves(ctx context.Context, plan campaignPlan, sink *mergeSink) {
	for attempt := 0; attempt <= c.retries; attempt++ {
		groups := make(map[string][]int)
		sink.mu.Lock()
		for i, done := range sink.answered {
			if !done {
				seq := c.ring.Sequence(plan.fps[i])
				groups[seq[attempt%len(seq)]] = append(groups[seq[attempt%len(seq)]], i)
			}
		}
		sink.mu.Unlock()
		if len(groups) == 0 {
			return
		}
		if attempt > 0 {
			var n int64
			for _, idxs := range groups {
				n += int64(len(idxs))
			}
			c.retried.Add(n)
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(attempt) * c.backoff):
			}
		}
		var wg sync.WaitGroup
		for rep, idxs := range groups {
			wg.Add(1)
			go func(rep string, idxs []int) {
				defer wg.Done()
				c.delegate(ctx, rep, plan, idxs, sink)
			}(rep, idxs)
		}
		wg.Wait()
	}
}

// delegate streams one replica's share of the campaign, remapping each
// completed point back to its global index. A stall — no point
// completing within StallTimeout — cancels the stream so the wave can
// move the remainder to the next replica.
func (c *Coordinator) delegate(ctx context.Context, rep string, plan campaignPlan, idxs []int, sink *mergeSink) {
	st := c.replicas[rep]
	st.assigned.Add(int64(len(idxs)))
	sub := make([]zhuyi.CampaignPoint, len(idxs))
	for j, i := range idxs {
		pt := plan.points[i]
		sub[j] = zhuyi.CampaignPoint{Scenario: pt.Scenario, FPR: pt.FPR, Seed: pt.Seed}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(c.stall, cancel)
	defer watchdog.Stop()

	res, err := c.clients[rep].CampaignStream(cctx, sub, func(p zhuyi.PointResult) {
		watchdog.Reset(c.stall)
		if p.Index < 0 || p.Index >= len(idxs) {
			return
		}
		// Per-point Errors are deterministic run outcomes, not replica
		// health; they are answered, never retried elsewhere.
		if sink.point(idxs[p.Index], p) {
			st.completed.Add(1)
		}
	})
	if err != nil {
		st.failures.Add(1)
		st.healthy.Store(false)
		sink.fail(rep, err)
		return
	}
	st.healthy.Store(true)
	if res != nil {
		sink.addStats(res.Stats)
	}
}

// pointResultFromEntry shapes a manifest entry into the wire form of a
// disk-tier campaign point (what a replica would have answered, minus
// the replica).
func pointResultFromEntry(i int, pt server.Point, ent store.Entry) server.PointResult {
	pr := server.PointResult{
		Index: i, Scenario: pt.Scenario, FPR: pt.FPR, Seed: pt.Seed,
		Source:          engine.SourceDisk.String(),
		MinBumperGap:    ent.MinBumperGap,
		MinGapInfinite:  ent.MinGapInfinite,
		EgoStopped:      ent.EgoStopped,
		Rows:            ent.Rows,
		FramesProcessed: ent.FramesProcessed,
	}
	if ent.Collision != nil {
		pr.Collided = true
		pr.CollisionTime = ent.Collision.Time
		pr.CollisionActor = ent.Collision.ActorID
	}
	return pr
}

// handleMRF answers an MRF search from the shared manifest when every
// probed point is archived; otherwise it proxies the query to the
// scenario's owning replica (whose caches make it the cheapest place
// to simulate the cold points).
func (c *Coordinator) handleMRF(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("scenario")
	sc, ok := c.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q (GET /v1/scenarios)", name)
		return
	}
	seeds, fprs, err := server.ParseMRFQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if seeds*len(fprs) > c.maxPts {
		writeError(w, http.StatusBadRequest, "mrf search of %d seeds x %d rates exceeds the %d-point limit", seeds, len(fprs), c.maxPts)
		return
	}
	m, err := metrics.FindMRFContext(r.Context(), c.eng, sc, fprs, seeds)
	if err == nil {
		writeJSON(w, http.StatusOK, server.MRFResponseFor(m, fprs))
		return
	}
	if !errors.Is(err, errCold) {
		writeError(w, http.StatusInternalServerError, "mrf %s: %v", name, err)
		return
	}
	c.proxied.Add(1)
	c.proxyMRF(w, r, c.ring.Owner(c.reg.Fingerprint(name)))
}

// proxyMRF forwards the MRF request verbatim to a replica and copies
// the response back — status, body, and content type unchanged, so the
// client cannot tell warm and delegated answers apart.
func (c *Coordinator) proxyMRF(w http.ResponseWriter, r *http.Request, rep string) {
	st := c.replicas[rep]
	url := rep + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "proxy %s: %v", rep, err)
		return
	}
	httpc := c.clients[rep].HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		st.failures.Add(1)
		st.healthy.Store(false)
		writeError(w, http.StatusBadGateway, "replica %s: %v", rep, err)
		return
	}
	defer resp.Body.Close()
	st.healthy.Store(true)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleStats reports the coordinator's own engine/store view plus the
// fabric block: per-replica health/assignment counters and the
// retry/proxy totals.
func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := server.StatsResponse{
		Workers: c.eng.Workers(),
		Engine:  server.EngineStatsToWire(c.eng.Stats()),
		Server: server.ServerStats{
			Requests:       c.requests.Load(),
			Campaigns:      c.campaigns.Load(),
			CampaignPoints: c.points.Load(),
		},
		Latency: c.lat.Snapshot(),
		Fabric: &server.FabricStats{
			Retried:   c.retried.Load(),
			Proxied:   c.proxied.Load(),
			RateLocal: c.lat.RateLatency(),
		},
	}
	for _, rep := range c.ring.Replicas() {
		st := c.replicas[rep]
		resp.Fabric.Replicas = append(resp.Fabric.Replicas, server.ReplicaStats{
			URL:       st.url,
			Healthy:   st.healthy.Load(),
			Assigned:  st.assigned.Load(),
			Completed: st.completed.Load(),
			Failures:  st.failures.Load(),
		})
	}
	if c.st != nil {
		sum := c.st.Summarize()
		resp.Store = &sum
	}
	writeJSON(w, http.StatusOK, resp)
}
