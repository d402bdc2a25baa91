package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordedTrace runs one Table-1 point with full recording.
func recordedTrace(tb testing.TB, name string, fpr float64) *trace.Trace {
	tb.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		tb.Fatalf("%s not registered", name)
	}
	cfg := sc.Build(fpr, 1)
	cfg.Record = trace.LevelFull
	res, err := sim.Run(cfg)
	if err != nil {
		tb.Fatalf("%s @ %g: %v", name, fpr, err)
	}
	return res.Trace
}

// zytBytes is the ZYT1 encoding of tr.
func zytBytes(tb testing.TB, tr *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestZYTMatchesFrozenDecoderTable1: over every registered Table-1
// scenario at 2, 10 and 30 FPR, the current decoder returns what the
// frozen reference decoder does.
func TestZYTMatchesFrozenDecoderTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("records 27 Table-1 points")
	}
	for _, name := range scenario.Names() {
		for _, fpr := range []float64{2, 10, 30} {
			data := zytBytes(t, recordedTrace(t, name, fpr))
			want, err := trace.FrozenReadZYT(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s @ %g: frozen decoder: %v", name, fpr, err)
			}
			got, err := trace.ReadZYT(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s @ %g: %v", name, fpr, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s @ %g: decoders disagree", name, fpr)
			}
			if direct, err := trace.DecodeZYT(data); err != nil || !reflect.DeepEqual(direct, want) {
				t.Errorf("%s @ %g: DecodeZYT disagrees (err %v)", name, fpr, err)
			}
		}
	}
}

// BenchmarkReadZYT decodes the cut-out @ 30 FPR trace (the disk
// tier's benchmark point) from memory.
func BenchmarkReadZYT(b *testing.B) {
	data := zytBytes(b, recordedTrace(b, scenario.CutOut, 30))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadZYT(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteZYT encodes the same trace, as the archiver does.
func BenchmarkWriteZYT(b *testing.B) {
	tr := recordedTrace(b, scenario.CutOut, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteZYT(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
