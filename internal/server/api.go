package server

import (
	"math"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/store"
)

// This file is the service's wire contract: the JSON types every
// endpoint consumes and produces, plus the route table the handler mux
// and docs/api.md are both built from. zhuyi.Client speaks exactly
// these types; changing a field here is an API change and must be
// reflected in docs/api.md (the route-table test pins the endpoint
// list, the client round-trip tests pin the shapes).

// Point names one seeded closed-loop run, mirroring the facade's
// CampaignPoint.
type Point struct {
	Scenario string  `json:"scenario"`
	FPR      float64 `json:"fpr"`
	Seed     int64   `json:"seed"`
}

// CampaignRequest is the body of POST /v1/campaign.
type CampaignRequest struct {
	Points []Point `json:"points"`
}

// PointResult is the streamed outcome of one campaign point: the run
// summary (never the full trace — traces stay server-side; fetch them
// through the store endpoints if archived) plus the tier that answered
// ("fresh", "memory", or "disk").
type PointResult struct {
	Index    int     `json:"index"` // submission index within the request
	Scenario string  `json:"scenario"`
	FPR      float64 `json:"fpr"`
	Seed     int64   `json:"seed"`
	Source   string  `json:"source"`
	Error    string  `json:"error,omitempty"`

	Collided        bool           `json:"collided"`
	CollisionTime   float64        `json:"collision_time,omitempty"`
	CollisionActor  string         `json:"collision_actor,omitempty"`
	MinBumperGap    float64        `json:"min_bumper_gap"`
	MinGapInfinite  bool           `json:"min_gap_infinite,omitempty"`
	EgoStopped      bool           `json:"ego_stopped,omitempty"`
	Rows            int            `json:"rows,omitempty"`
	FramesProcessed map[string]int `json:"frames_processed,omitempty"`
}

// CampaignStats mirrors engine.CampaignStats over the wire.
type CampaignStats struct {
	Jobs      int     `json:"jobs"`
	Executed  int     `json:"executed"`
	CacheHits int     `json:"cache_hits"`
	DiskHits  int     `json:"disk_hits"`
	Failures  int     `json:"failures"`
	Skipped   int     `json:"skipped"`
	WallMS    float64 `json:"wall_ms"`
}

// CampaignLine is one NDJSON line of the POST /v1/campaign response
// stream: per-point lines carry Point, the final line carries Stats
// (and Error when any run failed). Exactly one of Point/Stats is set.
type CampaignLine struct {
	Point *PointResult   `json:"point,omitempty"`
	Stats *CampaignStats `json:"stats,omitempty"`
	Error string         `json:"error,omitempty"`
}

// SearchRequest is the body of POST /v1/search: the budget of an
// adversarial scenario search (see internal/search). Zero fields take
// the search defaults; the resolved budget must fit the server's
// campaign point limit.
type SearchRequest struct {
	// Families restricts the search (default: every spec family).
	Families []string `json:"families,omitempty"`
	// Seed makes the search reproducible: the same request body always
	// streams the same generations and corpus.
	Seed int64 `json:"seed"`
	// Generations and Population set the per-family budget.
	Generations int `json:"generations,omitempty"`
	Population  int `json:"population,omitempty"`
	// Seeds is the number of simulation seeds per MRF evaluation.
	Seeds int `json:"seeds,omitempty"`
	// TopN trims the returned corpus to the hardest N candidates.
	TopN int `json:"top_n,omitempty"`
	// FPRGrid overrides the Table-1 candidate rate grid.
	FPRGrid []float64 `json:"fpr_grid,omitempty"`
}

// SearchLine is one NDJSON line of the POST /v1/search stream: a
// generation summary while the search runs, then exactly one corpus
// (or error) trailer.
type SearchLine struct {
	Generation *search.GenerationSummary `json:"generation,omitempty"`
	Corpus     *search.Result            `json:"corpus,omitempty"`
	Error      string                    `json:"error,omitempty"`
}

// RatePoint is one tested rate of an MRF search.
type RatePoint struct {
	FPR        float64 `json:"fpr"`
	Collisions int     `json:"collisions"`
}

// MRFResponse is the body of GET /v1/mrf/{scenario}.
type MRFResponse struct {
	Scenario string `json:"scenario"`
	// MRF is the minimum required FPR; 0 with BelowGrid set encodes
	// "safe at every tested rate" (the paper's "<1"), 0 with AboveGrid
	// set encodes "collided even at the highest tested rate" (+Inf is
	// not representable in JSON).
	MRF       float64     `json:"mrf"`
	BelowGrid bool        `json:"below_grid"`
	AboveGrid bool        `json:"above_grid"`
	Seeds     int         `json:"seeds"`
	Runs      int         `json:"runs"` // points scheduled, including cache hits
	Grid      []RatePoint `json:"grid"` // tested rates only; skipped rates are absent
}

// AgentState is the wire form of one vehicle's kinematic state for
// POST /v1/rate. Length and Width default to the passenger-car preset
// when zero.
type AgentState struct {
	ID      string  `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"` // radians CCW from +X
	Speed   float64 `json:"speed"`   // longitudinal, m/s
	Accel   float64 `json:"accel"`   // m/s², negative = braking
	LatVel  float64 `json:"lat_vel"` // left-positive, m/s
	Length  float64 `json:"length,omitempty"`
	Width   float64 `json:"width,omitempty"`
	Lane    int     `json:"lane,omitempty"`
	Static  bool    `json:"static,omitempty"`
}

// RateRequest is the body of POST /v1/rate: one kinematic snapshot,
// optionally with the per-camera rates currently operating (enabling
// the §3.2 safety check in the response).
type RateRequest struct {
	Time      float64            `json:"time"`
	Ego       AgentState         `json:"ego"`
	Actors    []AgentState       `json:"actors"`
	Operating map[string]float64 `json:"operating,omitempty"`
}

// RateAlarm is one camera operating below its estimated requirement.
type RateAlarm struct {
	Camera    string  `json:"camera"`
	Required  float64 `json:"required"`
	Operating float64 `json:"operating"`
}

// RateCheck is the §3.2 safety-check verdict on the posted operating
// rates.
type RateCheck struct {
	OK     bool        `json:"ok"`
	Action string      `json:"action"`
	Alarms []RateAlarm `json:"alarms,omitempty"`
}

// RateResponse is the body of POST /v1/rate: the raw Zhuyi per-camera
// estimates, their aggregates over the analyzed cameras, the
// controller's allocated rates (margin, floor, cap applied), and the
// safety check when operating rates were posted.
type RateResponse struct {
	Time      float64            `json:"time"`
	CameraFPR map[string]float64 `json:"camera_fpr"`
	SumFPR    float64            `json:"sum_fpr"`
	MaxFPR    float64            `json:"max_fpr"`
	Rates     map[string]float64 `json:"rates"`
	Check     *RateCheck         `json:"check,omitempty"`
}

// ScenariosResponse is the body of GET /v1/scenarios: the registered
// catalog, or a generated corpus when ?corpus=N is given.
type ScenariosResponse struct {
	Scenarios []scenario.Info `json:"scenarios"`
	// Generated is set when the listing is a procedural corpus rather
	// than the registry; Seed then records the generator seed.
	Generated bool  `json:"generated,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

// EngineStats mirrors engine.Stats over the wire.
type EngineStats struct {
	Executed    int64 `json:"executed"`
	CacheHits   int64 `json:"cache_hits"`
	DiskHits    int64 `json:"disk_hits"`
	Archived    int64 `json:"archived"`
	Failures    int64 `json:"failures"`
	StoreErrors int64 `json:"store_errors"`
	// ArchivePending counts the fresh results whose store write has not
	// yet landed, queued for the archiver or being written by it or by
	// their own worker; their waiters are still waiting.
	ArchivePending int64 `json:"archive_pending"`
}

// ReplicaStats are one fabric replica's coordinator-side counters.
type ReplicaStats struct {
	URL string `json:"url"`
	// Healthy reflects the last delegation attempt: false after a
	// failed stream until a later attempt succeeds.
	Healthy bool `json:"healthy"`
	// Assigned counts campaign points partitioned to this replica
	// (retries of the same point onto another replica count there).
	Assigned int64 `json:"assigned"`
	// Completed counts point outcomes this replica streamed back.
	Completed int64 `json:"completed"`
	// Failures counts delegation attempts that errored (connection
	// refused, mid-stream death, timeout).
	Failures int64 `json:"failures"`
}

// FabricStats are the coordinator's fan-out counters, present on
// GET /v1/stats only in coordinator mode.
type FabricStats struct {
	Replicas []ReplicaStats `json:"replicas"`
	// Retried counts points re-partitioned onto the next replica on the
	// ring after their owner failed mid-campaign.
	Retried int64 `json:"retried"`
	// Proxied counts requests delegated to a replica: cold MRF searches
	// the shared manifest could not answer, and every adversarial
	// search.
	Proxied int64 `json:"proxied"`
	// RateLocal is the coordinator's own POST /v1/rate latency summary:
	// rate requests are answered locally, never delegated, so this block
	// stays live even when every replica is dead.
	RateLocal *EndpointLatency `json:"rate_local,omitempty"`
}

// EndpointLatency is one route's served-latency summary on GET
// /v1/stats: merged from the route's lock-free histogram shards, with
// quantiles reported as the upper bound of their log bucket (at most
// 12.5% above the true value). All durations are microseconds.
type EndpointLatency struct {
	Route  string  `json:"route"` // "METHOD /pattern", as in the route table
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// AdmissionStats reports the priority gate's activity: how many
// campaign-worker yields actually parked for rate traffic and their
// total parked time.
type AdmissionStats struct {
	RateInFlight int64   `json:"rate_in_flight"`
	Yields       uint64  `json:"yields"`
	WaitedMS     float64 `json:"waited_ms"`
}

// ServerStats are service-lifetime request counters.
type ServerStats struct {
	Requests       int64 `json:"requests"`
	Campaigns      int64 `json:"campaigns"`
	CampaignPoints int64 `json:"campaign_points"`
}

// StatsResponse is the body of GET /v1/stats: evidence of how the
// service is answering — fresh simulations versus memory and disk
// tiers — plus the attached store's manifest volume.
type StatsResponse struct {
	Workers int            `json:"workers"`
	Engine  EngineStats    `json:"engine"`
	Server  ServerStats    `json:"server"`
	Store   *store.Summary `json:"store,omitempty"`
	// Latency reports per-endpoint served-latency histograms (routes
	// with at least one request, in route-table order).
	Latency []EndpointLatency `json:"latency,omitempty"`
	// Admission reports the rate-priority gate, when one is attached.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Fabric is set only by a coordinator: per-replica health and
	// assignment counters plus retry/proxy totals.
	Fabric *FabricStats `json:"fabric,omitempty"`
}

// StoreResponse is the body of GET /v1/store.
type StoreResponse struct {
	Dir       string        `json:"dir"`
	Summary   store.Summary `json:"summary"`
	Baselines bool          `json:"baselines"` // baselines.jsonl present
}

// ManifestResponse is the body of GET /v1/store/manifest.
type ManifestResponse struct {
	Entries []store.Entry `json:"entries"`
}

// DiffResponse is the body of GET /v1/store/diff: the differential
// replay of every archived trace against the recorded baselines.
type DiffResponse struct {
	Runs        int      `json:"runs"`
	Baselines   int      `json:"baselines"`
	Clean       bool     `json:"clean"`
	Divergences []string `json:"divergences,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Route describes one endpoint: the docs/api.md reference is checked
// against this table, and the handler mux is built from it, so the
// three cannot drift apart.
type Route struct {
	Method  string `json:"method"`
	Pattern string `json:"pattern"`
	Summary string `json:"summary"`
}

// Routes returns the service's complete route table.
func Routes() []Route {
	return []Route{
		{"GET", "/healthz", "liveness probe; returns ok once the service accepts requests"},
		{"POST", "/v1/campaign", "run a batch of (scenario, FPR, seed) points; streams one NDJSON line per point as it completes, then a stats trailer"},
		{"GET", "/v1/mrf/{scenario}", "minimum-required-FPR search for one scenario (paper §4.2)"},
		{"POST", "/v1/rate", "online §3.2 rate estimate on a posted kinematic snapshot, with controller allocation and optional safety check"},
		{"GET", "/v1/scenarios", "registered scenario catalog, or a generated corpus with ?corpus=N&seed=S"},
		{"POST", "/v1/search", "adversarial scenario search: evolve spec families toward MRF-hard corpora; streams one NDJSON generation summary per (family, generation), then the hardest-N corpus"},
		{"GET", "/v1/stats", "engine and service counters: fresh runs vs memory/disk hits, store volume"},
		{"GET", "/v1/store", "attached persistent store: directory, manifest summary, baseline presence"},
		{"GET", "/v1/store/manifest", "manifest entries, optionally filtered by ?scenario="},
		{"GET", "/v1/store/peek", "one manifest entry by ?scenario=&fpr=&seed=: the run summary the disk tier answers with"},
		{"GET", "/v1/store/diff", "differential replay of every archived trace against recorded baselines"},
	}
}

// OutcomeToWire shapes an engine outcome into the wire form of campaign
// point i; the fabric coordinator shares it for the points its warm
// tier answers, so the two cannot drift apart.
func OutcomeToWire(i int, o engine.Outcome) PointResult {
	pr := PointResult{
		Index:    i,
		Scenario: o.Job.Scenario.Name,
		FPR:      o.Job.FPR,
		Seed:     o.Job.Seed,
		Source:   o.Source.String(),
	}
	if o.Err != nil {
		pr.Error = o.Err.Error()
		return pr
	}
	res := o.Result
	if res == nil {
		pr.Error = "no result"
		return pr
	}
	if res.Collision != nil {
		pr.Collided = true
		pr.CollisionTime = res.Collision.Time
		pr.CollisionActor = res.Collision.ActorID
	}
	pr.MinBumperGap = res.MinBumperGap
	if math.IsInf(res.MinBumperGap, 1) {
		pr.MinBumperGap, pr.MinGapInfinite = 0, true
	}
	pr.EgoStopped = res.EgoStopped
	pr.FramesProcessed = res.FramesProcessed
	pr.Rows = res.ArchivedRows
	if res.Trace != nil {
		pr.Rows = res.Trace.Len()
	}
	return pr
}

// EngineStatsToWire lifts engine counters to their wire form; the
// fabric coordinator shares it so its /v1/stats engine block cannot
// drift from a worker's.
func EngineStatsToWire(s engine.Stats) EngineStats {
	return EngineStats{
		Executed:       s.Executed,
		CacheHits:      s.CacheHits,
		DiskHits:       s.DiskHits,
		Archived:       s.Archived,
		Failures:       s.Failures,
		StoreErrors:    s.StoreErrors,
		ArchivePending: s.ArchivePending,
	}
}

func statsToWire(s engine.CampaignStats) CampaignStats {
	return CampaignStats{
		Jobs:      s.Jobs,
		Executed:  s.Executed,
		CacheHits: s.CacheHits,
		DiskHits:  s.DiskHits,
		Failures:  s.Failures,
		Skipped:   s.Skipped,
		WallMS:    float64(s.Wall) / 1e6,
	}
}
