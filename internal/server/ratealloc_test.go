//go:build !race

// Allocation budget and benchmarks for the pooled /v1/rate path, gated
// only on non-race builds (race instrumentation allocates; CI runs the
// gate as a step of its loadtest job). The budget is the serving path's
// contract, measured below net/http: exactly 0 allocations per binary
// request at the serveRate boundary, and a ceiling per JSON request
// over serveRate plus the WriteJSON answer the handler writes.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// jsonRateAllocCeiling bounds the JSON wire, which decodes with
// encoding/json and encodes with json.MarshalIndent. The reflective
// decode allocates per actor ID, per operating key and in the
// decoder's own state (27 for rateBenchRequest at the serveRate
// boundary); WriteJSON adds the response maps' boxing, sorting and
// indent buffers (20 more). The ceiling leaves 3 of headroom for a
// Go release to move; the pooled scratch keeps the estimator and
// controller off this count, and the binary wire is the one held at 0.
const jsonRateAllocCeiling = 50

// discardResponse is a ResponseWriter that keeps nothing but its
// header map, so a measurement counts the handler's allocations only.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (discardResponse) WriteHeader(int)             {}

// rateServer returns what handleRate does with one body below
// net/http: serveRate on sc, then for JSON the WriteJSON answer.
func rateServer(tb testing.TB, s *Server, sc *rateScratch) func(body []byte, binary bool) {
	rd := bytes.NewReader(nil)
	w := discardResponse{h: http.Header{}}
	return func(body []byte, binary bool) {
		rd.Reset(body)
		if code, msg := s.serveRate(sc, rd, binary); code != 0 {
			tb.Fatalf("serveRate failed: %d %s", code, msg)
		}
		if !binary {
			WriteJSON(w, http.StatusOK, sc.response())
		}
	}
}

func TestRateServeAllocBudget(t *testing.T) {
	s := New(Options{})
	sc := getRateScratch()
	defer putRateScratch(sc)

	jsonBody, err := json.Marshal(rateBenchRequest())
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := AppendRateRequestBinary(nil, rateBenchRequest())
	if err != nil {
		t.Fatal(err)
	}

	serve := rateServer(t, s, sc)
	measure := func(body []byte, binary bool) float64 {
		return testing.AllocsPerRun(500, func() { serve(body, binary) })
	}

	a := measure(jsonBody, false)
	t.Logf("JSON rate path: %.1f allocs/request", a)
	if a > jsonRateAllocCeiling {
		t.Errorf("JSON rate path: %.1f allocs/request, ceiling is %d", a, jsonRateAllocCeiling)
	}
	if a := measure(binBody, true); a != 0 {
		t.Errorf("binary rate path: %.1f allocs/request, budget is 0", a)
	}
}

func benchRateServe(b *testing.B, body []byte, binary bool) {
	s := New(Options{})
	sc := getRateScratch()
	defer putRateScratch(sc)
	serve := rateServer(b, s, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(body, binary)
	}
}

func BenchmarkRateServeJSON(b *testing.B) {
	body, err := json.Marshal(rateBenchRequest())
	if err != nil {
		b.Fatal(err)
	}
	benchRateServe(b, body, false)
}

func BenchmarkRateServeBinary(b *testing.B) {
	body, err := AppendRateRequestBinary(nil, rateBenchRequest())
	if err != nil {
		b.Fatal(err)
	}
	benchRateServe(b, body, true)
}
