package zhuyi

// The typed Go client for the campaign service (`zhuyi serve`,
// internal/server). Client mirrors the local Campaign API: the same
// CampaignPoint values go in, a CampaignResult comes out — the only
// difference is that over the wire each outcome carries the run
// summary (collision, closest approach, frames processed), never the
// full trace; Outcome.Result.Trace is nil for remote campaigns. (The
// service runs store-less points at summary recording level, so there
// is no trace to ship in the first place; store-backed points are
// archived server-side and addressable via the store endpoints.)

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Wire types of the campaign service, re-exported for client callers.
// See internal/server's api.go for field documentation; docs/api.md is
// the endpoint reference.
type (
	// PointResult is one streamed campaign-point outcome, including the
	// tier that answered it ("fresh", "memory", or "disk").
	PointResult = server.PointResult
	// RateRequest is a kinematic snapshot for the online §3.2 estimate.
	RateRequest = server.RateRequest
	// RateResponse is the online estimate: per-camera FPR requirements,
	// controller-allocated rates, optional safety check.
	RateResponse = server.RateResponse
	// AgentState is the wire form of one vehicle's kinematic state.
	AgentState = server.AgentState
	// MRFResponse is a remote minimum-required-FPR search result.
	MRFResponse = server.MRFResponse
	// ServiceStats are the service's engine/server/store counters — the
	// evidence of which tier (fresh, memory, disk) answers requests.
	ServiceStats = server.StatsResponse
	// ScenarioInfo is one catalog entry of GET /v1/scenarios.
	ScenarioInfo = scenario.Info
	// SearchRequest is the budget of a remote adversarial scenario
	// search (POST /v1/search).
	SearchRequest = server.SearchRequest
)

// Client is a typed client for a running campaign service. The zero
// value is not usable; construct with NewClient. A Client is safe for
// concurrent use. All methods honor ctx cancellation and deadlines —
// including mid-stream during a campaign.
type Client struct {
	base string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	// Set a client with a Timeout to bound whole-campaign wall time.
	HTTPClient *http.Client
}

// NewClient builds a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes the service's JSON error body.
func apiError(resp *http.Response) error {
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("zhuyi: server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("zhuyi: server: HTTP %d", resp.StatusCode)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Campaign runs a batch of seeded points on the remote service — the
// same CampaignPoint API as the local Campaign function. Outcomes
// align with points by index; each Result carries the run summary with
// a nil Trace. The returned error is non-nil when the request itself
// fails or any run failed server-side (per-point errors are also in
// the outcomes).
func (c *Client) Campaign(ctx context.Context, points []CampaignPoint) (*CampaignResult, error) {
	return c.CampaignStream(ctx, points, nil)
}

// CampaignStream is Campaign with a progress hook: fn (when non-nil)
// is invoked per point in completion order, while the rest of the
// campaign is still running server-side.
func (c *Client) CampaignStream(ctx context.Context, points []CampaignPoint, fn func(PointResult)) (*CampaignResult, error) {
	reqBody := server.CampaignRequest{Points: make([]server.Point, len(points))}
	for i, pt := range points {
		reqBody.Points[i] = server.Point{Scenario: pt.Scenario, FPR: pt.FPR, Seed: pt.Seed}
	}
	body, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/campaign", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}

	res := &CampaignResult{Outcomes: make([]CampaignOutcome, len(points))}
	for i, pt := range points {
		res.Outcomes[i] = CampaignOutcome{Point: pt, Err: fmt.Errorf("zhuyi: point %d: no outcome in stream", i)}
	}
	var trailerErr error
	sawStats := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var cl server.CampaignLine
		if err := json.Unmarshal(line, &cl); err != nil {
			return res, fmt.Errorf("zhuyi: bad stream line: %w", err)
		}
		switch {
		case cl.Point != nil:
			p := *cl.Point
			if p.Index < 0 || p.Index >= len(points) {
				return res, fmt.Errorf("zhuyi: stream point index %d out of range", p.Index)
			}
			res.Outcomes[p.Index] = outcomeFromWire(points[p.Index], p)
			if fn != nil {
				fn(p)
			}
		case cl.Stats != nil:
			sawStats = true
			res.Stats = statsFromWire(*cl.Stats)
			if cl.Error != "" {
				trailerErr = fmt.Errorf("zhuyi: campaign: %s", cl.Error)
			}
		case cl.Error != "":
			// An error-only line (no point, no stats) is the server
			// aborting the stream — the fabric coordinator emits one when
			// every replica is lost. Surface the server's words instead of
			// the misleading "ended without a stats trailer".
			return res, fmt.Errorf("zhuyi: campaign: %s", cl.Error)
		}
	}
	if err := sc.Err(); err != nil {
		// Mid-stream abort: ctx cancellation or a dropped connection.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, ctxErr
		}
		return res, fmt.Errorf("zhuyi: campaign stream: %w", err)
	}
	if !sawStats {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, ctxErr
		}
		return res, fmt.Errorf("zhuyi: campaign stream ended without a stats trailer")
	}
	return res, trailerErr
}

// outcomeFromWire reconstructs a summary-only result (nil Trace).
func outcomeFromWire(pt CampaignPoint, p PointResult) CampaignOutcome {
	o := CampaignOutcome{Point: pt, Source: p.Source}
	if p.Error != "" {
		o.Err = fmt.Errorf("zhuyi: %s", p.Error)
		return o
	}
	res := &sim.Result{
		FramesProcessed: p.FramesProcessed,
		MinBumperGap:    p.MinBumperGap,
		EgoStopped:      p.EgoStopped,
	}
	if p.MinGapInfinite {
		res.MinBumperGap = math.Inf(1)
	}
	if p.Collided {
		res.Collision = &trace.Collision{Time: p.CollisionTime, ActorID: p.CollisionActor}
	}
	if res.FramesProcessed == nil {
		res.FramesProcessed = map[string]int{}
	}
	o.Result = res
	return o
}

func statsFromWire(s server.CampaignStats) CampaignStats {
	return CampaignStats{
		Jobs:      s.Jobs,
		Executed:  s.Executed,
		CacheHits: s.CacheHits,
		DiskHits:  s.DiskHits,
		Failures:  s.Failures,
		Skipped:   s.Skipped,
		Wall:      time.Duration(s.WallMS * float64(time.Millisecond)),
	}
}

// Search runs a remote adversarial scenario search (POST /v1/search):
// the service evolves the requested spec families toward their
// hardest corpora on its shared engine. fn (when non-nil) receives
// each generation summary as it streams; the returned result is the
// final hardest-N corpus. Deterministic per request: the same budget
// yields the same corpus, and a warm server-side store answers every
// rescore without simulating.
func (c *Client) Search(ctx context.Context, sr SearchRequest, fn func(SearchGeneration)) (*SearchResult, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}

	var corpus *SearchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sl server.SearchLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return nil, fmt.Errorf("zhuyi: bad search stream line: %w", err)
		}
		switch {
		case sl.Error != "":
			return nil, fmt.Errorf("zhuyi: search: %s", sl.Error)
		case sl.Generation != nil:
			if fn != nil {
				fn(*sl.Generation)
			}
		case sl.Corpus != nil:
			corpus = sl.Corpus
		}
	}
	if err := sc.Err(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("zhuyi: search stream: %w", err)
	}
	if corpus == nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("zhuyi: search stream ended without a corpus trailer")
	}
	return corpus, nil
}

// MRF runs a remote minimum-required-FPR search (GET /v1/mrf/{name}).
// seeds <= 0 uses the server default (10).
func (c *Client) MRF(ctx context.Context, scenarioName string, seeds int) (MRFResponse, error) {
	path := "/v1/mrf/" + url.PathEscape(scenarioName)
	if seeds > 0 {
		path += fmt.Sprintf("?seeds=%d", seeds)
	}
	var out MRFResponse
	err := c.getJSON(ctx, path, &out)
	return out, err
}

// Rate posts one kinematic snapshot for the online §3.2 estimate
// (POST /v1/rate).
func (c *Client) Rate(ctx context.Context, req RateRequest) (RateResponse, error) {
	var out RateResponse
	err := c.postJSON(ctx, "/v1/rate", req, &out)
	return out, err
}

// RateBinaryContentType is the Content-Type negotiating the
// length-prefixed binary rate wire format (see docs/api.md).
const RateBinaryContentType = server.RateBinaryContentType

// RateBinary is Rate over the binary wire format: the request is a
// length-prefixed frame instead of JSON, and the server — seeing
// RateBinaryContentType — answers in kind. Semantically identical to
// Rate; the frame skips JSON encode/decode on both ends, which is what
// drops the server to zero allocations per request. An error is
// returned if the server does not negotiate the binary response.
func (c *Client) RateBinary(ctx context.Context, rr RateRequest) (RateResponse, error) {
	body, err := server.AppendRateRequestBinary(nil, rr)
	if err != nil {
		return RateResponse{}, fmt.Errorf("zhuyi: encode rate request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/rate", bytes.NewReader(body))
	if err != nil {
		return RateResponse{}, err
	}
	req.Header.Set("Content-Type", RateBinaryContentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return RateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RateResponse{}, apiError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != RateBinaryContentType {
		return RateResponse{}, fmt.Errorf("zhuyi: server answered Content-Type %q, not the negotiated binary format", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return RateResponse{}, err
	}
	out, err := server.DecodeRateResponseBinary(data)
	if err != nil {
		return RateResponse{}, fmt.Errorf("zhuyi: decode rate response: %w", err)
	}
	return out, nil
}

// Scenarios lists the service's registered catalog, optionally
// filtered by tags (GET /v1/scenarios).
func (c *Client) Scenarios(ctx context.Context, tags ...string) ([]ScenarioInfo, error) {
	path := "/v1/scenarios"
	if len(tags) > 0 {
		path += "?tags=" + url.QueryEscape(strings.Join(tags, ","))
	}
	var out server.ScenariosResponse
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}

// Stats reads the service's counters (GET /v1/stats): how many points
// ran fresh versus answering from the memory and disk tiers.
func (c *Client) Stats(ctx context.Context) (ServiceStats, error) {
	var out ServiceStats
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}
