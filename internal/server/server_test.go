package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// postCampaign posts points and decodes the NDJSON stream.
func postCampaign(t *testing.T, base string, req CampaignRequest) ([]PointResult, CampaignStats) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var points []PointResult
	var stats *CampaignStats
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line CampaignLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Point != nil:
			if stats != nil {
				t.Fatal("point line after stats trailer")
			}
			points = append(points, *line.Point)
		case line.Stats != nil:
			stats = line.Stats
		default:
			t.Fatalf("line carries neither point nor stats: %q", sc.Text())
		}
		if line.Error != "" && line.Stats == nil && line.Point == nil {
			t.Fatalf("stream error: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("no stats trailer")
	}
	return points, *stats
}

func campaignTwoPoints() CampaignRequest {
	return CampaignRequest{Points: []Point{
		{Scenario: scenario.CutOut, FPR: 30, Seed: 1},
		{Scenario: scenario.CutOut, FPR: 30, Seed: 2},
	}}
}

// TestCampaignStreamAndTiers is the acceptance round-trip at the
// handler level: a first campaign runs fresh, the identical second
// campaign answers from the memory tier, and a new server process over
// the same store directory answers from the disk tier — each asserted
// via /v1/stats. The disk tier's lines match the fresh lines in every
// field but source, row counts included.
func TestCampaignStreamAndTiers(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Options{Store: st})

	points, stats := postCampaign(t, ts.URL, campaignTwoPoints())
	if len(points) != 2 || stats.Jobs != 2 {
		t.Fatalf("got %d points, stats %+v", len(points), stats)
	}
	if stats.Executed != 2 || stats.CacheHits != 0 || stats.DiskHits != 0 {
		t.Errorf("cold campaign stats %+v, want 2 fresh", stats)
	}
	seen := map[int]bool{}
	for _, p := range points {
		if p.Source != "fresh" {
			t.Errorf("point %d source %q, want fresh", p.Index, p.Source)
		}
		if p.Error != "" {
			t.Errorf("point %d error %q", p.Index, p.Error)
		}
		if p.Rows == 0 {
			t.Errorf("point %d has no rows", p.Index)
		}
		seen[p.Index] = true
	}
	if len(seen) != 2 {
		t.Errorf("indices %v, want 0 and 1", seen)
	}

	// Identical request: memory tier.
	_, stats = postCampaign(t, ts.URL, campaignTwoPoints())
	if stats.CacheHits != 2 || stats.Executed != 0 {
		t.Errorf("warm campaign stats %+v, want 2 memory hits", stats)
	}
	var stResp StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stResp)
	if stResp.Engine.CacheHits < 2 || stResp.Engine.Executed != 2 || stResp.Engine.Archived != 2 {
		t.Errorf("engine stats %+v", stResp.Engine)
	}
	if stResp.Server.Campaigns != 2 || stResp.Server.CampaignPoints != 4 {
		t.Errorf("server stats %+v", stResp.Server)
	}
	if stResp.Store == nil || stResp.Store.Entries != 2 {
		t.Errorf("store summary %+v, want 2 entries", stResp.Store)
	}

	// New server over the same store: cold memory, warm disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := newTestServer(t, Options{Store: st2})
	diskPoints, stats := postCampaign(t, ts2.URL, campaignTwoPoints())
	if stats.DiskHits != 2 || stats.Executed != 0 {
		t.Errorf("disk-tier campaign stats %+v, want 2 disk hits", stats)
	}
	fresh := map[int]PointResult{}
	for _, p := range points {
		fresh[p.Index] = p
	}
	for _, p := range diskPoints {
		if p.Source != "disk" {
			t.Errorf("point %d source %q, want disk", p.Index, p.Source)
		}
		p.Source = "fresh"
		if !reflect.DeepEqual(p, fresh[p.Index]) {
			t.Errorf("point %d: disk line %+v differs from fresh line %+v", p.Index, p, fresh[p.Index])
		}
	}
	var stResp2 StatsResponse
	getJSON(t, ts2.URL+"/v1/stats", &stResp2)
	if stResp2.Engine.DiskHits != 2 || stResp2.Engine.Executed != 0 {
		t.Errorf("engine stats after disk-tier campaign: %+v", stResp2.Engine)
	}
}

// TestCampaignLineImpliesArchived: on a store-backed server, every
// point line a campaign streams names a point the manifest already
// holds when the client reads it, so a replica killed right after
// streaming a line loses nothing. One worker keeps the archiver busy
// while later points stream.
func TestCampaignLineImpliesArchived(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Options{Store: st, Workers: 1})

	sc, ok := scenario.Lookup(scenario.CutOutFast)
	if !ok {
		t.Fatal("cut-out-fast not registered")
	}
	var req CampaignRequest
	for seed := int64(1); seed <= 6; seed++ {
		for _, fpr := range []float64{2, 30} {
			req.Points = append(req.Points, Point{Scenario: sc.Name, FPR: fpr, Seed: seed})
		}
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	n := 0
	for lines.Scan() {
		var line CampaignLine
		if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", lines.Text(), err)
		}
		if line.Point == nil {
			continue
		}
		n++
		p := line.Point
		if _, ok := st.Lookup(store.KeyForScenario(sc, p.FPR, p.Seed)); !ok {
			t.Errorf("point fpr %g seed %d streamed before it was archived", p.FPR, p.Seed)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(req.Points) {
		t.Fatalf("streamed %d point lines, want %d", n, len(req.Points))
	}
}

func TestCampaignBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{"points":[]}`},
		{"unknown scenario", `{"points":[{"scenario":"no-such","fpr":30,"seed":1}]}`},
		{"bad fpr", `{"points":[{"scenario":"cut-out","fpr":0,"seed":1}]}`},
		{"malformed", `{"points":`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: non-JSON error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestMRFEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	var m MRFResponse
	resp := getJSON(t, ts.URL+"/v1/mrf/"+scenario.CutOut+"?seeds=1&fprs=30", &m)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m.Scenario != scenario.CutOut || m.Seeds != 1 {
		t.Errorf("mrf response %+v", m)
	}
	if len(m.Grid) == 0 {
		t.Error("empty grid")
	}
	if resp := getJSON(t, ts.URL+"/v1/mrf/no-such", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown scenario: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/mrf/"+scenario.CutOut+"?seeds=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seeds: status %d, want 400", resp.StatusCode)
	}
}

// TestMRFAboveGridAndUnsortedInput: a grid whose highest rate still
// collides must answer with above_grid (never a broken +Inf body), and
// a descending ?fprs= list must be normalized before the search —
// "30,1" and "1,30" are the same grid.
func TestMRFAboveGridAndUnsortedInput(t *testing.T) {
	ts := newTestServer(t, Options{})
	// cut-out-fast collides at 1 and 2 FPR (MRF is 3): a grid topping
	// out at 2 is above-grid.
	var m MRFResponse
	resp := getJSON(t, ts.URL+"/v1/mrf/cut-out-fast?seeds=1&fprs=1,2", &m)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (a +Inf MRF must still encode)", resp.StatusCode)
	}
	if !m.AboveGrid || m.MRF != 0 || m.BelowGrid {
		t.Errorf("above-grid response %+v", m)
	}

	var sorted, unsorted MRFResponse
	getJSON(t, ts.URL+"/v1/mrf/cut-out-fast?seeds=1&fprs=2,30", &sorted)
	getJSON(t, ts.URL+"/v1/mrf/cut-out-fast?seeds=1&fprs=30,2,2", &unsorted)
	if sorted.MRF != unsorted.MRF || sorted.AboveGrid != unsorted.AboveGrid {
		t.Errorf("grid order changed the answer: sorted %+v vs unsorted %+v", sorted, unsorted)
	}
	if sorted.MRF != 30 {
		t.Errorf("mrf over {2,30} = %g, want 30 (collides at 2)", sorted.MRF)
	}

	// Unbounded work must be rejected, and so must non-finite rates.
	if resp := getJSON(t, ts.URL+"/v1/mrf/cut-out?seeds=100000000", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge seeds: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/mrf/cut-out?seeds=1&fprs=inf", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fprs=inf: status %d, want 400", resp.StatusCode)
	}
}

// TestPointBudgetOverflowRejected: client-supplied budget factors
// whose product wraps int must be refused with 400, not compared
// against the point limit after wrapping to something small.
func TestPointBudgetOverflowRejected(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, tc := range []struct{ name, method, path, body string }{
		{"search generations x population", http.MethodPost, "/v1/search",
			`{"families":["cut-in"],"generations":2147483648,"population":2147483648,"seeds":4,"fpr_grid":[1]}`},
		{"search seeds", http.MethodPost, "/v1/search",
			`{"families":["cut-in"],"generations":1,"population":1,"seeds":9223372036854775807,"fpr_grid":[1,2]}`},
		{"mrf seeds x rates", http.MethodGet, "/v1/mrf/cut-out?seeds=4611686018427387904&fprs=1,2,3,4", ""},
		{"mrf seeds x default grid", http.MethodGet, "/v1/mrf/cut-out?seeds=9223372036854775807", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestWithinPoints(t *testing.T) {
	for _, tc := range []struct {
		limit   int
		factors []int
		want    bool
	}{
		{100, nil, true},
		{100, []int{10, 10}, true},
		{100, []int{10, 11}, false},
		{100, []int{101}, false},
		{100, []int{0, math.MaxInt, math.MaxInt}, true},
		{100, []int{-1, 2}, false},
		{100_000, []int{1 << 62, 4}, false},
		{100_000, []int{1, 1 << 31, 1 << 31, 4, 1}, false},
	} {
		if got := WithinPoints(tc.limit, tc.factors...); got != tc.want {
			t.Errorf("WithinPoints(%d, %v) = %v, want %v", tc.limit, tc.factors, got, tc.want)
		}
	}
}

func TestRateEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	// A braking lead vehicle directly ahead: the front camera must
	// demand a real rate, and operating it at 1 FPR must alarm.
	req := RateRequest{
		Time: 0,
		Ego:  AgentState{X: 0, Y: 0, Speed: 20},
		Actors: []AgentState{
			{ID: "lead", X: 25, Y: 0, Speed: 12, Accel: -4},
		},
		Operating: map[string]float64{"front120": 1, "front60": 1, "left": 1, "right": 1, "rear": 1},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rr RateResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.CameraFPR) == 0 || len(rr.Rates) == 0 {
		t.Fatalf("empty estimates: %+v", rr)
	}
	if rr.MaxFPR <= 0 {
		t.Errorf("max FPR %g, want positive (threat ahead)", rr.MaxFPR)
	}
	if rr.Check == nil {
		t.Fatal("operating rates posted but no check in response")
	}

	// Invalid kinematics must 400, not 500.
	bad, _ := json.Marshal(RateRequest{Ego: AgentState{Speed: -5}})
	resp2, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("negative speed: status %d, want 400", resp2.StatusCode)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	var list ScenariosResponse
	getJSON(t, ts.URL+"/v1/scenarios?tags="+scenario.TagTable1, &list)
	if len(list.Scenarios) != 9 || list.Generated {
		t.Errorf("table1 catalog: %d scenarios, generated=%v", len(list.Scenarios), list.Generated)
	}
	var corpus ScenariosResponse
	getJSON(t, ts.URL+"/v1/scenarios?corpus=5&seed=2", &corpus)
	if len(corpus.Scenarios) != 5 || !corpus.Generated || corpus.Seed != 2 {
		t.Errorf("corpus: %+v", corpus)
	}
	var corpus2 ScenariosResponse
	getJSON(t, ts.URL+"/v1/scenarios?corpus=5&seed=2", &corpus2)
	if fmt.Sprint(corpus) != fmt.Sprint(corpus2) {
		t.Error("generated corpus is not deterministic per seed")
	}
	if resp := getJSON(t, ts.URL+"/v1/scenarios?corpus=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corpus=0: status %d, want 400", resp.StatusCode)
	}
	// Regression: an unknown family used to fall through to cut-in
	// sampling and come back mislabeled; it must be a 400 naming the
	// bogus family.
	resp, err := http.Get(ts.URL + "/v1/scenarios?corpus=3&families=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("families=bogus: status %d, want 400", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apiErr.Error, "bogus") {
		t.Errorf("families=bogus error %q does not name the family", apiErr.Error)
	}
	// Valid family subsets still generate.
	var only ScenariosResponse
	getJSON(t, ts.URL+"/v1/scenarios?corpus=3&families=cut-out", &only)
	if len(only.Scenarios) != 3 {
		t.Errorf("families=cut-out corpus: %d scenarios, want 3", len(only.Scenarios))
	}
}

func TestStoreEndpoints(t *testing.T) {
	// Without a store, every /v1/store route is a clean 404.
	bare := newTestServer(t, Options{})
	for _, path := range []string{"/v1/store", "/v1/store/manifest", "/v1/store/peek?scenario=cut-out&fpr=30&seed=1", "/v1/store/diff"} {
		if resp := getJSON(t, bare.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without store: status %d, want 404", path, resp.StatusCode)
		}
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Options{Store: st})
	postCampaign(t, ts.URL, campaignTwoPoints())

	var sr StoreResponse
	getJSON(t, ts.URL+"/v1/store", &sr)
	if sr.Summary.Entries != 2 || sr.Summary.Scenarios != 1 || sr.Baselines {
		t.Errorf("store response %+v", sr)
	}
	var mr ManifestResponse
	getJSON(t, ts.URL+"/v1/store/manifest?scenario="+scenario.CutOut, &mr)
	if len(mr.Entries) != 2 {
		t.Errorf("manifest entries %d, want 2", len(mr.Entries))
	}
	var none ManifestResponse
	getJSON(t, ts.URL+"/v1/store/manifest?scenario=other", &none)
	if len(none.Entries) != 0 {
		t.Errorf("filtered manifest returned %d entries", len(none.Entries))
	}

	var ent store.Entry
	resp := getJSON(t, ts.URL+"/v1/store/peek?scenario="+scenario.CutOut+"&fpr=30&seed=1", &ent)
	if resp.StatusCode != http.StatusOK || ent.Scenario != scenario.CutOut {
		t.Errorf("peek: status %d entry %+v", resp.StatusCode, ent)
	}
	if resp := getJSON(t, ts.URL+"/v1/store/peek?scenario="+scenario.CutOut+"&fpr=30&seed=99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("peek miss: status %d, want 404", resp.StatusCode)
	}
	// A rate /v1/mrf would refuse is a bad request here too, not a miss.
	for _, fpr := range []string{"NaN", "inf", "-Inf", "0", "-1"} {
		if resp := getJSON(t, ts.URL+"/v1/store/peek?scenario="+scenario.CutOut+"&fpr="+fpr+"&seed=1", nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("peek fpr=%s: status %d, want 400", fpr, resp.StatusCode)
		}
	}

	// No baselines recorded yet: diff is a 404, not a failure.
	if resp := getJSON(t, ts.URL+"/v1/store/diff", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("diff without baselines: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestRoutesAllHandled: every descriptor in the route table resolves
// to a handler (Handler panics otherwise) and registers cleanly.
func TestRoutesAllHandled(t *testing.T) {
	s := New(Options{})
	_ = s.Handler()
	if len(Routes()) < 10 {
		t.Errorf("route table has %d routes", len(Routes()))
	}
}

// TestCampaignWithoutStoreRunsSummaryLevel pins the service's
// recording policy: with no persistent store there is nothing to
// archive, so campaign points run at summary level — the streamed
// summaries are complete (source, collision, min gap) but no per-step
// rows were ever materialized (Rows stays 0).
func TestCampaignWithoutStoreRunsSummaryLevel(t *testing.T) {
	ts := newTestServer(t, Options{})
	points, stats := postCampaign(t, ts.URL, campaignTwoPoints())
	if len(points) != 2 || stats.Executed != 2 {
		t.Fatalf("got %d points, stats %+v", len(points), stats)
	}
	for _, p := range points {
		if p.Error != "" {
			t.Errorf("point %d error %q", p.Index, p.Error)
		}
		if p.Rows != 0 {
			t.Errorf("point %d has %d rows: store-less campaigns must not materialize traces", p.Index, p.Rows)
		}
		if !p.MinGapInfinite && p.MinBumperGap == 0 && !p.Collided {
			t.Errorf("point %d summary looks empty: %+v", p.Index, p)
		}
	}
}
