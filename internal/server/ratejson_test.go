package server

// Wire-contract tests for the /v1/rate JSON wire: golden bytes pinning
// the response encoding, the 400s malformed bodies get, and the pooled
// decode target reading each body as a fresh one would.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/world"
)

// serveRateJSON posts body to the handler through a recorder, with no
// listener, and returns the response bytes.
func serveRateJSON(t *testing.T, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	New(Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("rate: %d %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestRateResponseGoldenJSON pins the response encoding byte for byte.
// The bytes are exactly what the pre-pooled handler produced with
// json.MarshalIndent(v, "", "  ") + "\n"; any drift here is a breaking
// wire change.
func TestRateResponseGoldenJSON(t *testing.T) {
	goldenMin := "{\n  \"time\": 1.5,\n  \"camera_fpr\": {\n    \"front120\": 1,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"sum_fpr\": 3,\n  \"max_fpr\": 1,\n  \"rates\": {\n    \"front120\": 1,\n    \"left\": 1,\n    \"right\": 1\n  }\n}\n"
	if got := serveRateJSON(t, `{"time":1.5,"ego":{"id":"ego","speed":20}}`); string(got) != goldenMin {
		t.Errorf("minimal response drifted:\ngot:  %q\nwant: %q", got, goldenMin)
	}

	goldenCheck := "{\n  \"time\": 4.2,\n  \"camera_fpr\": {\n    \"front120\": 30.3030303030303,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"sum_fpr\": 32.3030303030303,\n  \"max_fpr\": 30.3030303030303,\n  \"rates\": {\n    \"front120\": 30,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"check\": {\n    \"ok\": false,\n    \"action\": \"emergency-backup\",\n    \"alarms\": [\n      {\n        \"camera\": \"front120\",\n        \"required\": 30.3030303030303,\n        \"operating\": 1\n      }\n    ]\n  }\n}\n"
	body := `{"time":4.2,"ego":{"id":"ego","speed":22},"actors":[{"id":"lead","x":32,"speed":17},{"id":"merge","x":40,"y":-3.5,"speed":13,"heading":0.12,"lat_vel":0.8,"lane":-1}],"operating":{"front120":1,"left":1,"right":1}}`
	if got := serveRateJSON(t, body); string(got) != goldenCheck {
		t.Errorf("check response drifted:\ngot:  %q\nwant: %q", got, goldenCheck)
	}
}

func randomRateRequest(rng *rand.Rand) RateRequest {
	req := RateRequest{
		Time: math.Round(rng.Float64()*1e4) / 1e2,
		Ego:  AgentState{ID: "ego", Speed: rng.Float64() * 35},
	}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		req.Actors = append(req.Actors, AgentState{
			ID:      string(rune('a' + i)),
			X:       rng.Float64()*120 - 20,
			Y:       float64(rng.Intn(3)-1) * 3.5,
			Speed:   rng.Float64() * 35,
			Accel:   rng.Float64()*6 - 4,
			Heading: rng.Float64()*0.4 - 0.2,
			LatVel:  rng.Float64()*2 - 1,
			Lane:    rng.Intn(3) - 1,
		})
	}
	if rng.Intn(2) == 0 {
		req.Operating = map[string]float64{}
		for _, cam := range []string{"front120", "left", "right"} {
			if rng.Intn(2) == 0 {
				req.Operating[cam] = float64(rng.Intn(30) + 1)
			}
		}
		if len(req.Operating) == 0 {
			req.Operating["front120"] = 5
		}
	}
	return req
}

// TestRateDecodeBadRequests pins decoder error behavior at the HTTP
// surface: malformed bodies are 400s with JSON error bodies — exactly
// as the encoding/json-based handler answered them.
func TestRateDecodeBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"empty":           "",
		"truncated":       `{"time":`,
		"array top":       `[1,2]`,
		"bad number":      `{"time":01}`,
		"bad string":      `{"ego":{"id":"a` + "\x01" + `"}}`,
		"float lane":      `{"ego":{"lane":1.5}}`,
		"overflow lane":   `{"ego":{"lane":99999999999999999999}}`,
		"wrong type":      `{"actors":{}}`,
		"unclosed object": `{"operating":{"front120":1`,
	} {
		resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRateJSONDecodeReusesScratch: one scratch serves a run of JSON
// bodies with a six-actor binary frame after each, and must read every
// body as a fresh json.Decoder target does. A body naming fewer actors
// or fields than the storage holds is where a stale actor slot or
// operating entry would show; the frame after an "operating":null body
// needs the map reset remakes.
func TestRateJSONDecodeReusesScratch(t *testing.T) {
	bodies := []string{
		`{"time":4.2,"ego":{"id":"e","speed":3},"actors":[{"id":"a","x":1,"lane":2,"static":true},{"id":"b","y":-3.5}],"operating":{"front120":10,"left":2}}`,
		`{"actors":[{"id":"c","x":5}],"operating":null}`,
		`{"TIME":2,"Ego":{"ID":"x"},"actors":[{"id":"a","lane":1},{"id":"b"}],"actors":[{"id":"d","speed":7}]}`,
		`{"operating":{"right":1}}`,
		`{"actors":null}`,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		body, err := json.Marshal(randomRateRequest(rng))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	frame, err := AppendRateRequestBinary(nil, rateBenchRequest())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	sc := newRateScratch()
	for i, body := range bodies {
		if code, msg := s.serveRate(sc, strings.NewReader(body), false); code != 0 {
			t.Fatalf("body %d: %d %s", i, code, msg)
		}
		var want RateRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if want.Ego.ID == "" {
			want.Ego.ID = world.EgoID
		}
		got := sc.req
		// encoding/json leaves never-assigned slices and maps nil where
		// the scratch holds reusable empties; the wire meaning is the
		// same.
		if len(got.Actors) == 0 {
			got.Actors = nil
		}
		if len(want.Actors) == 0 {
			want.Actors = nil
		}
		if len(got.Operating) == 0 {
			got.Operating = nil
		}
		if len(want.Operating) == 0 {
			want.Operating = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d %s:\nscratch: %+v\nfresh:   %+v", i, body, got, want)
		}
		if code, msg := s.serveRate(sc, bytes.NewReader(frame), true); code != 0 {
			t.Fatalf("binary frame after body %d: %d %s", i, code, msg)
		}
	}
}
