package server

// Serving-tier behavior of the pooled /v1/rate path under load: the
// admission gate must keep campaign traffic from starving rate
// requests, and /v1/stats must account every request in the latency
// histograms. Race-safe (no allocation assertions here — those live in
// ratealloc_test.go behind //go:build !race).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// TestRateNotStarvedByCampaign hammers POST /v1/rate from 8 workers
// while a 40-point campaign streams on the same server. Every rate
// request must complete with 200 (zero dropped or starved), the
// client-observed p99 must stay bounded, and the stats endpoint must
// have histogram-accounted every one of them.
func TestRateNotStarvedByCampaign(t *testing.T) {
	ts := newTestServer(t, Options{})

	campErr := make(chan error, 1)
	go func() {
		pts := make([]Point, 40)
		for i := range pts {
			pts[i] = Point{Scenario: scenario.CutOut, FPR: 30, Seed: int64(1000 + i)}
		}
		body, _ := json.Marshal(CampaignRequest{Points: pts})
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
		if err != nil {
			campErr <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			campErr <- fmt.Errorf("campaign status %d", resp.StatusCode)
			return
		}
		campErr <- nil
	}()

	const workers, perWorker = 8, 30
	reqBody, _ := json.Marshal(rateHammerRequest())
	var mu sync.Mutex
	var durations []time.Duration
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := time.Now()
				resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("rate status %d", resp.StatusCode)
					return
				}
				mu.Lock()
				durations = append(durations, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("rate request dropped under campaign load: %v", err)
	}
	if err := <-campErr; err != nil {
		t.Fatalf("background campaign: %v", err)
	}

	if len(durations) != workers*perWorker {
		t.Fatalf("completed %d rate requests, want %d", len(durations), workers*perWorker)
	}
	slices.Sort(durations)
	p99 := durations[len(durations)-1-len(durations)/100]
	// Generous for race-mode shared CI runners; without the admission
	// gate a rate request can sit behind a full campaign's compute.
	if limit := 2 * time.Second; p99 > limit {
		t.Errorf("rate p99 under campaign load = %v, bound %v", p99, limit)
	}
	t.Logf("rate p99 under campaign load: %v (max %v)", p99, durations[len(durations)-1])

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Admission == nil {
		t.Fatal("stats response has no admission block")
	}
	if st.Admission.RateInFlight != 0 {
		t.Errorf("rate_in_flight %d after load, want 0", st.Admission.RateInFlight)
	}
	t.Logf("admission: %d worker yields, %.1f ms waited", st.Admission.Yields, st.Admission.WaitedMS)
	rateRow := findLatency(st.Latency, "POST /v1/rate")
	if rateRow == nil {
		t.Fatal("no POST /v1/rate latency row in /v1/stats")
	}
	if rateRow.Count != workers*perWorker {
		t.Errorf("rate histogram count %d, want %d", rateRow.Count, workers*perWorker)
	}
	if rateRow.P99US <= 0 || rateRow.MaxUS < rateRow.P50US {
		t.Errorf("rate latency row looks broken: %+v", rateRow)
	}
	if campRow := findLatency(st.Latency, "POST /v1/campaign"); campRow == nil || campRow.Count != 1 {
		t.Errorf("campaign latency row %+v, want count 1", campRow)
	}
}

// TestBuiltEngineSharesAdmissionGate pins the wiring `zhuyi serve`
// relies on: the engine New builds yields to the server's own gate. A
// point run while a rate request holds the gate must park its worker,
// and /v1/stats must count that yield.
func TestBuiltEngineSharesAdmissionGate(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(s.Engine().Close)
	sc, ok := s.reg.Lookup(scenario.CutOut)
	if !ok {
		t.Fatalf("scenario %q not registered", scenario.CutOut)
	}
	s.gate.Enter()
	_, err := s.Engine().Run(context.Background(), engine.Job{Scenario: sc, FPR: 30, Seed: 1})
	s.gate.Leave()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Admission == nil {
		t.Fatal("stats response has no admission block")
	}
	if st.Admission.Yields < 1 {
		t.Errorf("admission yields %d after a point run under a held gate, want >= 1", st.Admission.Yields)
	}
}

func findLatency(rows []EndpointLatency, route string) *EndpointLatency {
	for i := range rows {
		if rows[i].Route == route {
			return &rows[i]
		}
	}
	return nil
}

// rateHammerRequest is the starvation test's snapshot: a braking lead
// plus flanking traffic, with an operating point so the safety
// check runs on every request.
func rateHammerRequest() RateRequest {
	return RateRequest{
		Time: 4.2,
		Ego:  AgentState{ID: "ego", Speed: 22},
		Actors: []AgentState{
			{ID: "lead", X: 32, Speed: 17, Accel: -3},
			{ID: "left", X: 8, Y: 3.5, Speed: 24, Lane: 1},
			{ID: "right", X: 12, Y: -3.5, Speed: 15, Lane: -1},
		},
		Operating: map[string]float64{"front120": 10, "left": 5, "right": 5},
	}
}

// TestRateNonFiniteFrameReleasesGate: a binary frame with a NaN
// heading is answered with a JSON 400 and leaves the admission gate
// closed, so campaign workers do not park behind a request that
// already ended.
func TestRateNonFiniteFrameReleasesGate(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := rateHammerRequest()
	req.Ego.Heading = math.NaN()
	frame, err := AppendRateRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Post(ts.URL+"/v1/rate", RateBinaryContentType, bytes.NewReader(frame)); err != nil {
		t.Errorf("NaN-heading frame: %v", err)
	} else {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("NaN-heading frame: status %d, error body %q (%v), want a JSON 400", resp.StatusCode, e.Error, err)
		}
		resp.Body.Close()
	}
	if n := s.gate.Active(); n != 0 {
		t.Errorf("admission gate holds %d requests after the answer, want 0", n)
	}
}

// panicBody is a request body whose Read panics, standing in for any
// fault below the rate handler.
type panicBody struct{}

func (panicBody) Read([]byte) (int, error) { panic("body read fault") }

// TestRatePanicReleasesGate: a panic while a rate request holds the
// admission gate must still release the gate, or every later campaign
// Yield parks for its full MaxWait.
func TestRatePanicReleasesGate(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panicking body did not panic the handler")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/rate", panicBody{}))
	}()
	if n := s.gate.Active(); n != 0 {
		t.Errorf("admission gate holds %d requests after a panic, want 0", n)
	}
}

// TestRateBinaryNegotiation: a binary-framed request must come back as
// a binary frame that decodes to exactly the JSON answer, and
// malformed frames must fail as JSON 400s, never panics.
func TestRateBinaryNegotiation(t *testing.T) {
	ts := newTestServer(t, Options{})
	req := rateHammerRequest()

	jsonBody, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	var want RateResponse
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	frame, err := AppendRateRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/rate", RateBinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary rate status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != RateBinaryContentType {
		t.Fatalf("binary response Content-Type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRateResponseBinary(data)
	if err != nil {
		t.Fatalf("decode binary response: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("binary response diverges from JSON:\nbinary: %+v\njson:   %+v", got, want)
	}

	// Error paths: truncated frame, bad magic, and a parameterized
	// Content-Type must all answer JSON 400s.
	for name, tc := range map[string]struct {
		ct   string
		body []byte
		code int
	}{
		"truncated":  {RateBinaryContentType, frame[:len(frame)-3], http.StatusBadRequest},
		"bad magic":  {RateBinaryContentType, append([]byte{4, 0, 0, 0}, "XXXX"...), http.StatusBadRequest},
		"empty":      {RateBinaryContentType, nil, http.StatusBadRequest},
		"with param": {RateBinaryContentType + "; charset=utf-8", frame, http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/rate", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.code)
		}
		if tc.code == http.StatusBadRequest {
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s: error body not JSON: %v", name, err)
			}
		}
		resp.Body.Close()
	}
}
