package trace

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

// zytRoundTrip encodes and decodes through the binary format.
func zytRoundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatalf("WriteZYT: %v", err)
	}
	got, err := ReadZYT(&buf)
	if err != nil {
		t.Fatalf("ReadZYT: %v", err)
	}
	return got
}

// jsonlRoundTrip encodes and decodes through the JSONL format.
func jsonlRoundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

// TestPropertyZYTRoundTrip: across generated trace shapes, the binary
// round trip must agree with the JSONL round trip exactly — the two
// decoders are interchangeable reconstructions of the same artifact.
func TestPropertyZYTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		tr := randomTrace(rng, rng.Intn(120))
		viaJSON := jsonlRoundTrip(t, tr)
		viaZYT := zytRoundTrip(t, tr)
		if !reflect.DeepEqual(viaZYT, viaJSON) {
			t.Fatalf("trial %d: ZYT and JSONL round trips disagree\n zyt meta %+v (%d rows)\njson meta %+v (%d rows)",
				trial, viaZYT.Meta, viaZYT.Len(), viaJSON.Meta, viaJSON.Len())
		}
		if !reflect.DeepEqual(viaZYT, tr) {
			t.Fatalf("trial %d: ZYT round trip not identical to source", trial)
		}
	}
}

// TestZYTMultiBlock pins block chunking: a trace longer than one
// writer block must round-trip across the block boundary, including
// delta chains and string tables resetting per block.
func TestZYTMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, zytBlockRows+257)
	if got := zytRoundTrip(t, tr); !reflect.DeepEqual(got, tr) {
		t.Fatal("multi-block round trip not identical")
	}
}

// TestZYTEdgeShapes covers the nil/empty distinctions the JSONL
// encoding makes (or deliberately collapses): the binary decoder must
// match encoding/json's behavior case by case.
func TestZYTEdgeShapes(t *testing.T) {
	t.Run("EmptyTrace", func(t *testing.T) {
		tr := &Trace{Meta: Meta{Scenario: "empty", FPR: 5, Dt: 0.01}}
		if got := zytRoundTrip(t, tr); !reflect.DeepEqual(got, jsonlRoundTrip(t, tr)) {
			t.Fatal("empty trace round trips disagree")
		}
	})
	t.Run("HeaderOnlyWithCollision", func(t *testing.T) {
		tr := &Trace{
			Meta:      Meta{Scenario: "summary", FPR: 30, Seed: 3, Dt: 0.01, Cameras: []string{"front120"}},
			Collision: &Collision{Time: 12.5, ActorID: "a0"},
		}
		if got := zytRoundTrip(t, tr); !reflect.DeepEqual(got, jsonlRoundTrip(t, tr)) {
			t.Fatal("header-only round trips disagree")
		}
	})
	t.Run("NilVsEmptyActors", func(t *testing.T) {
		tr := &Trace{Meta: Meta{Scenario: "shapes", FPR: 5, Dt: 0.01}}
		tr.Rows = []Row{
			{Time: 0, Ego: world.Agent{ID: world.EgoID, Length: 4, Width: 2}, Actors: nil},
			{Time: 0.01, Ego: world.Agent{ID: world.EgoID, Length: 4, Width: 2}, Actors: []world.Agent{}},
		}
		viaJSON := jsonlRoundTrip(t, tr)
		viaZYT := zytRoundTrip(t, tr)
		if !reflect.DeepEqual(viaZYT, viaJSON) {
			t.Fatal("ZYT and JSONL disagree on nil vs empty actors")
		}
		if viaZYT.Rows[0].Actors != nil {
			t.Error("nil actors decoded non-nil")
		}
		if viaZYT.Rows[1].Actors == nil {
			t.Error("empty actors decoded nil")
		}
	})
	t.Run("EmptyRatesNormalizeLikeJSON", func(t *testing.T) {
		// omitempty drops an empty rates map on the JSONL path, so both
		// decoders must return nil for it.
		tr := &Trace{Meta: Meta{Scenario: "rates", FPR: 5, Dt: 0.01}}
		tr.Rows = []Row{{Time: 0, Ego: world.Agent{ID: world.EgoID, Length: 4, Width: 2}, Rates: map[string]float64{}}}
		viaJSON := jsonlRoundTrip(t, tr)
		viaZYT := zytRoundTrip(t, tr)
		if !reflect.DeepEqual(viaZYT, viaJSON) {
			t.Fatal("ZYT and JSONL disagree on empty rates")
		}
		if viaZYT.Rows[0].Rates != nil {
			t.Error("empty rates map decoded non-nil")
		}
	})
	t.Run("LongIDsAndManyCameras", func(t *testing.T) {
		tr := &Trace{Meta: Meta{Scenario: "long", FPR: 5, Dt: 0.01}}
		id := strings.Repeat("actor-", 200)
		tr.Rows = []Row{{
			Time:   0,
			Ego:    world.Agent{ID: world.EgoID, Length: 4, Width: 2},
			Actors: []world.Agent{{ID: id, Length: 4, Width: 2, Lane: -3, Static: true}},
			Rates:  map[string]float64{"front120": 30, "left": 7.5, "rear": 1},
		}}
		if got := zytRoundTrip(t, tr); !reflect.DeepEqual(got, tr) {
			t.Fatal("long-ID round trip not identical")
		}
	})
}

// goldenZYTTrace is a small fixed trace whose binary encoding is
// pinned byte-for-byte below: any frame-layout change must be a
// deliberate format revision, not an accident.
func goldenZYTTrace() *Trace {
	tr := &Trace{
		Meta:      Meta{Scenario: "golden", FPR: 7.5, Seed: 42, Dt: 0.01, Cameras: []string{"front120", "left"}},
		Collision: &Collision{Time: 0.02, ActorID: "a1"},
	}
	for i := 0; i < 3; i++ {
		t := float64(i) * 0.01
		row := Row{
			Time: t,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(10*t, 1.75), Heading: 0},
				Speed: 10, Accel: 0.5, Length: 4.6, Width: 1.9, Lane: 1,
			},
			CmdAccel: -0.25,
			AEB:      i == 2,
			Rates:    map[string]float64{"front120": 7.5, "left": 7.5},
		}
		if i > 0 {
			row.Actors = []world.Agent{{
				ID: "a1", Pose: geom.Pose{Pos: geom.V(20+t, 1.75)},
				Speed: 5, Length: 4.6, Width: 1.9, Lane: 1,
			}}
		}
		tr.Rows = append(tr.Rows, row)
	}
	return tr
}

// goldenZYTHex is the pinned ZYT1 encoding of goldenZYTTrace. To
// regenerate after a deliberate format revision, set it to "" and run
// TestZYTGolden: the failure message prints the current encoding.
const goldenZYTHex = "5a5954310184017b226d657461223a7b227363656e6172696f223a22676f6c64656e222c22667072223a372e352c2273656564223a34322c226474223a302e30312c2263616d65726173223a5b2266726f6e74313230222c226c656674225d7d2c22636f6c6c6973696f6e223a7b2274696d65223a302e30322c226163746f725f6964223a226131227d7d02f90103020365676f02613100f6d1f0faa8b8bd847f808080808080801000000000b4e6cc99b3e6ccb97f808080808080801080808080808080fc7f000000000080808080808080a48001000080808080808080e07f0000000000cc99b3e6cc99b39280010000cc99b3e6cc99b3fe7f000002000000ffffffffffffffaf8001000004000202010186d7c7c2eba381b4800184d7c7c2eba30180808080808080fc7f000000808080808080809480010000000000cc99b3e6cc99b392800100cc99b3e6cc99b3fe7f00020000020866726f6e74313230046c6566740200808080808080809e800101808080808080809e800102000001000200000100ff0103"

func TestZYTGolden(t *testing.T) {
	tr := goldenZYTTrace()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	if goldenZYTHex == "" {
		t.Fatalf("golden fixture missing; current encoding:\n%s", hex.EncodeToString(buf.Bytes()))
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenZYTHex {
		t.Fatalf("ZYT1 frame layout drifted from the golden fixture\n got %s\nwant %s", got, goldenZYTHex)
	}
	fixture, err := hex.DecodeString(goldenZYTHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadZYT(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("golden fixture decodes to a different trace")
	}
}

// TestZYTRecycledEncoderWritesSameBytes: WriteZYT reuses encoders
// across calls, so an encoder that last wrote a larger trace, with
// other strings and cameras, must still write the golden bytes, and a
// trace written twice must come out the same both times.
func TestZYTRecycledEncoderWritesSameBytes(t *testing.T) {
	big := randomTrace(rand.New(rand.NewSource(5)), 3*zytBlockRows)
	var first bytes.Buffer
	if err := big.WriteZYT(&first); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenZYTTrace().WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenZYTHex {
		t.Fatalf("golden trace after a larger one:\n got %s\nwant %s", got, goldenZYTHex)
	}
	buf.Reset()
	if err := big.WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), first.Bytes()) {
		t.Fatal("a trace written twice encoded differently the second time")
	}
}

// TestZYTRejectsTruncation: every proper prefix of a valid encoding
// must error — never panic, never return a silently shortened trace.
func TestZYTRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := ReadZYT(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

func TestZYTRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"BadMagic":       append([]byte("ZYTX"), valid[4:]...),
		"TrailingByte":   append(append([]byte{}, valid...), 0x00),
		"TrailingFrame":  append(append([]byte{}, valid...), 0x02, 0x00),
		"EmptyInput":     {},
		"MagicOnly":      []byte(ZYTMagic),
		"UnknownFrame":   append([]byte(ZYTMagic), 0x7A, 0x00),
		"RowsFirst":      append([]byte(ZYTMagic), 0x02, 0x01, 0x00),
		"HugeFrameClaim": append([]byte(ZYTMagic), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"BadHeaderJSON":  append([]byte(ZYTMagic), 0x01, 0x02, '{', 'x'),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadZYT(bytes.NewReader(data)); err == nil {
				t.Fatal("malformed input decoded without error")
			}
		})
	}

	t.Run("EndCountMismatch", func(t *testing.T) {
		// Rewrite the end frame's row count: the last frame is
		// [0xFF][len][uvarint count]; corrupt the count bytes.
		data := append([]byte{}, valid...)
		// sampleTrace has 100 rows → end payload is uvarint(100) = 1 byte
		// 0x64; the trailing 3 bytes are FF 01 64.
		if data[len(data)-3] != zytFrameEnd || data[len(data)-1] != 100 {
			t.Fatalf("unexpected tail % x", data[len(data)-3:])
		}
		data[len(data)-1] = 99
		if _, err := ReadZYT(bytes.NewReader(data)); err == nil {
			t.Fatal("row-count mismatch decoded without error")
		}
	})
}

// TestZYTAgentFieldsPinned fails when world.Agent gains or loses a
// field: the columnar encoding enumerates fields explicitly, so struct
// drift would silently drop data without this tripwire.
func TestZYTAgentFieldsPinned(t *testing.T) {
	want := []string{"ID", "Pose", "Speed", "Accel", "LatVel", "Length", "Width", "Lane", "Static"}
	typ := reflect.TypeOf(world.Agent{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("world.Agent fields changed: %v (ZYT1 encodes exactly %v — extend binary.go and revise the format)", got, want)
	}
	rowType := reflect.TypeOf(Row{})
	wantRow := []string{"Time", "Ego", "Actors", "CmdAccel", "AEB", "Rates"}
	got = nil
	for i := 0; i < rowType.NumField(); i++ {
		got = append(got, rowType.Field(i).Name)
	}
	if !reflect.DeepEqual(got, wantRow) {
		t.Fatalf("trace.Row fields changed: %v (ZYT1 encodes exactly %v)", got, wantRow)
	}
}
