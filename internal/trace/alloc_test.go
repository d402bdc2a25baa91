//go:build !race

// The allocation-budget regression gates for the ZYT1 codec. Race
// instrumentation perturbs allocation counts, so the gate only runs in
// non-race builds (CI runs it as a dedicated step).

package trace_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/world"
)

// TestReadZYTAllocBudget pins the decoder's allocation diet: decoding
// the cut-out @ 30 FPR trace may allocate its rows, its actors, one
// copy of the input and a small constant (the header, the interned
// strings, the block tables, and the page rounding of the three large
// allocations, under 8 KiB each) — no second row array, no frame
// buffer beside the input, no read buffer.
func TestReadZYTAllocBudget(t *testing.T) {
	const slack = 32 << 10
	tr := recordedTrace(t, scenario.CutOut, 30)
	data := zytBytes(t, tr)
	actors := 0
	for i := range tr.Rows {
		actors += len(tr.Rows[i].Actors)
	}
	budget := uint64(len(tr.Rows))*uint64(unsafe.Sizeof(trace.Row{})) +
		uint64(actors)*uint64(unsafe.Sizeof(world.Agent{})) +
		uint64(len(data)) + slack

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := trace.ReadZYT(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d rows, %d actors, %d input bytes: %d bytes allocated per decode (budget %d)",
		len(tr.Rows), actors, len(data), perRun, budget)
	if perRun > budget {
		t.Errorf("decoding allocated %d bytes (budget %d): the decoder regressed to a second row array or buffer copy", perRun, budget)
	}
}

// TestWriteZYTAllocBudget pins the encoder's allocation diet: once an
// encoder has grown to the cut-out @ 30 FPR trace, writing it again
// allocates only the JSON header and a small constant — no frame
// buffer, which is a row block's worth of bytes (about 380 KB for a
// Table-1 point). The encoders are pooled per P, so the gate runs on
// one P: a goroutine that moves to another P may find that P's pool
// empty and grow a second encoder.
func TestWriteZYTAllocBudget(t *testing.T) {
	const budget = 8 << 10
	tr := recordedTrace(t, scenario.CutOut, 30)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := tr.WriteZYT(io.Discard); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := tr.WriteZYT(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d rows: %d bytes allocated per encode (budget %d)", len(tr.Rows), perRun, budget)
	if perRun > budget {
		t.Errorf("encoding allocated %d bytes (budget %d): the encoder regressed to a fresh frame buffer per call", perRun, budget)
	}
}
