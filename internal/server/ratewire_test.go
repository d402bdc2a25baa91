package server

// Binary wire-format tests: the request frame layout is pinned byte
// for byte (a wire contract, like the JSON golden), round-trips are
// lossless, truncated, corrupt or non-finite frames fail cleanly, and
// no frame can panic the serving path.

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
)

// decodeRateRequestBinary decodes a binary rate request frame through
// the server's pooled decoder and copies the result out of the scratch,
// so a test can hold it and compare it with what
// AppendRateRequestBinary encoded.
func decodeRateRequestBinary(data []byte) (RateRequest, error) {
	sc := newRateScratch()
	sc.body = append(sc.body[:0], data...)
	var req RateRequest
	if err := sc.decodeBinaryRequest(); err != nil {
		return req, err
	}
	req.Time = sc.req.Time
	req.Ego = sc.req.Ego
	req.Actors = append([]AgentState(nil), sc.req.Actors...)
	if len(sc.req.Operating) > 0 {
		req.Operating = make(map[string]float64, len(sc.req.Operating))
		for k, v := range sc.req.Operating {
			req.Operating[k] = v
		}
	}
	return req, nil
}

// rateBenchRequest is the fixed snapshot the allocation budget, the
// benchmarks and the fuzz seeds post: six actors and an operating point
// so the check branch runs.
func rateBenchRequest() RateRequest {
	return RateRequest{
		Time: 4.2,
		Ego:  AgentState{ID: "ego", Speed: 22},
		Actors: []AgentState{
			{ID: "lead", X: 32, Speed: 17},
			{ID: "lead2", X: 58, Speed: 19},
			{ID: "left", X: 8, Y: 3.5, Speed: 24, Lane: 1},
			{ID: "left-rear", X: -14, Y: 3.5, Speed: 26, Lane: 1},
			{ID: "right", X: 12, Y: -3.5, Speed: 15, Lane: -1},
			{ID: "merge", X: 40, Y: -3.5, Speed: 13, Heading: 0.12, LatVel: 0.8, Lane: -1},
		},
		Operating: map[string]float64{"front120": 10, "left": 5, "right": 5},
	}
}

// TestRateRequestFrameGolden pins the exact frame AppendRateRequestBinary
// emits for a fixed request: length prefix, "ZYR1" magic, ego and
// actor records, and the sorted operating table. Any byte of drift is
// a breaking protocol change.
func TestRateRequestFrameGolden(t *testing.T) {
	req := RateRequest{
		Time: 4.2,
		Ego:  AgentState{ID: "ego", Speed: 22},
		Actors: []AgentState{
			{ID: "lead", X: 32, Speed: 17},
			{ID: "merge", X: 40, Y: -3.5, Speed: 13, Heading: 0.12, LatVel: 0.8, Lane: -1},
		},
		Operating: map[string]float64{"right": 1, "front120": 1, "left": 1},
	}
	const golden = "240100005a595231cdcccccccccc1040030065676f00000000000000000000000000000000000000000000000000000000" +
		"00003640000000000000000000000000000000000000000000000000000000000000000000000000000200000004006c6561" +
		"6400000000000040400000000000000000000000000000000000000000000031400000000000000000000000000000000000" +
		"000000000000000000000000000000000000000005006d6572676500000000000044400000000000000cc0b81e85eb51b8be" +
		"3f0000000000002a4000000000000000009a9999999999e93f00000000000000000000000000000000ffffffff0003000000" +
		"080066726f6e74313230000000000000f03f04006c656674000000000000f03f05007269676874000000000000f03f"
	frame, err := AppendRateRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Errorf("request frame drifted:\ngot:  %s\nwant: %s", got, golden)
	}
}

func TestRateRequestBinaryRoundTrip(t *testing.T) {
	cases := []RateRequest{
		{},
		{Time: 1.5, Ego: AgentState{ID: "ego", Speed: 20}},
		rateHammerRequest(),
		{Time: -3, Ego: AgentState{ID: "e", Lane: -2, Static: true},
			Actors:    []AgentState{{ID: strings.Repeat("x", 300), X: 1e300, Y: -1e-300}},
			Operating: map[string]float64{"": 0.5, "front120": 30}},
	}
	for i, req := range cases {
		frame, err := AppendRateRequestBinary(nil, req)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := decodeRateRequestBinary(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := req
		if len(want.Actors) == 0 {
			want.Actors = nil
		}
		if len(want.Operating) == 0 {
			want.Operating = nil
		}
		if len(got.Actors) == 0 {
			got.Actors = nil
		}
		if len(got.Operating) == 0 {
			got.Operating = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip diverged:\ngot:  %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestRateBinaryDecodeRejects: every truncation of a valid frame must
// error (never panic, never succeed), as must corrupt counts and
// trailing bytes.
func TestRateBinaryDecodeRejects(t *testing.T) {
	frame, err := AppendRateRequestBinary(nil, rateHammerRequest())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeRateRequestBinary(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// A count field claiming more records than the frame can hold must
	// be rejected up front, not attempted.
	corrupt := append([]byte(nil), frame...)
	// Actor count sits after the length prefix, magic, time, and the
	// ego record (id length + id + fixed fields).
	off := 4 + 4 + 8 + 2 + len("ego") + agentBinarySize
	copy(corrupt[off:], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := decodeRateRequestBinary(corrupt); err == nil {
		t.Error("absurd actor count decoded successfully")
	}
	withTrailing := append(append([]byte(nil), frame...), 0xAA)
	if _, err := decodeRateRequestBinary(withTrailing); err == nil {
		t.Error("trailing byte after frame decoded successfully")
	}
	// JSON cannot carry a NaN or an infinity, and the estimator panics
	// on some of them, so the frame refuses every one, in every field.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*RateRequest){
			"time":           func(r *RateRequest) { r.Time = v },
			"ego heading":    func(r *RateRequest) { r.Ego.Heading = v },
			"ego speed":      func(r *RateRequest) { r.Ego.Speed = v },
			"actor accel":    func(r *RateRequest) { r.Actors[0].Accel = v },
			"actor x":        func(r *RateRequest) { r.Actors[1].X = v },
			"actor width":    func(r *RateRequest) { r.Actors[2].Width = v },
			"operating rate": func(r *RateRequest) { r.Operating["left"] = v },
		} {
			req := rateHammerRequest()
			set(&req)
			frame, err := AppendRateRequestBinary(nil, req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeRateRequestBinary(frame); err == nil {
				t.Errorf("%s %v decoded successfully", name, v)
			}
		}
	}
}

// FuzzRateBinaryServe: any bytes posted on the binary wire end in a
// 400 or a 200 whose frame decodes, never a panic.
func FuzzRateBinaryServe(f *testing.F) {
	frame, err := AppendRateRequestBinary(nil, rateBenchRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	nan := rateBenchRequest()
	nan.Ego.Heading = math.NaN()
	if frame, err = AppendRateRequestBinary(nil, nan); err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	s := New(Options{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		sc := newRateScratch()
		switch code, msg := s.serveRate(sc, bytes.NewReader(frame), true); code {
		case 0:
			if _, err := DecodeRateResponseBinary(sc.out); err != nil {
				t.Fatalf("%x: response frame does not decode: %v", frame, err)
			}
		case 400:
		default:
			t.Fatalf("%x: status %d %s", frame, code, msg)
		}
	})
}
