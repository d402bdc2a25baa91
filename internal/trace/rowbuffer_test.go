package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/world"
)

// zytEncode is tr's ZYT1 encoding.
func zytEncode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeReused decodes data into buf the way the store does, through
// buf.Bytes, and requires the result to match DecodeZYT's: the same
// error, or a deep-equal trace.
func decodeReused(t *testing.T, label string, buf *RowBuffer, data []byte) (*Trace, error) {
	t.Helper()
	want, wantErr := DecodeZYT(data)
	b := buf.Bytes(len(data))
	copy(b, data)
	got, gotErr := DecodeZYTInto(b, buf)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: reused buffer error %v, DecodeZYT error %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decode into a reused buffer differs from DecodeZYT", label)
	}
	return got, gotErr
}

// TestDecodeZYTIntoReusedBuffer decodes a sequence of objects into one
// buffer: a multi-block trace with rate maps and nil and empty actor
// lists, a small trace after it, actor-less rows, a header-only trace,
// truncated and corrupted objects between good ones, and the large
// trace again. Every decode must match DecodeZYT, a failed one must
// leave the buffer good for the next, and a trace that fits the
// storage an earlier one grew must reuse it.
func TestDecodeZYTIntoReusedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	large := randomTrace(rng, 2*zytBlockRows+300)
	small := randomTrace(rng, 40)
	actorless := &Trace{Meta: Meta{Scenario: "actorless", FPR: 10, Dt: 0.01}}
	for i := range 30 {
		row := Row{Time: float64(i) * 0.01, Ego: world.Agent{ID: world.EgoID, Speed: 20, Length: 4.6, Width: 1.9}}
		if i%2 == 0 {
			row.Actors = []world.Agent{}
		}
		actorless.Rows = append(actorless.Rows, row)
	}
	dynamic := randomTrace(rng, 200)
	for i := range dynamic.Rows {
		dynamic.Rows[i].Rates = map[string]float64{"front120": float64(1 + i%30), "left": 7.5}
	}
	header := &Trace{Meta: Meta{Scenario: "header", FPR: 5}, Collision: &Collision{Time: 1, ActorID: "a0"}}

	largeZYT := zytEncode(t, large)
	// The first bit flip past the middle that the decoder refuses: it
	// fails in a later block, after the first filled its rows.
	var flipped []byte
	for i := len(largeZYT) / 2; flipped == nil; i++ {
		flipped = bytes.Clone(largeZYT)
		flipped[i] ^= 0x80
		if _, err := DecodeZYT(flipped); err == nil {
			flipped = nil
		}
	}
	steps := []struct {
		label string
		data  []byte
		src   *Trace // nil: the object is corrupt
	}{
		{"large", largeZYT, large},
		{"small after large", zytEncode(t, small), small},
		{"truncated large", largeZYT[:len(largeZYT)*2/3], nil},
		{"actor-less rows", zytEncode(t, actorless), actorless},
		{"bit-flipped large", flipped, nil},
		{"dynamic rates", zytEncode(t, dynamic), dynamic},
		{"large with trailing data", append(bytes.Clone(largeZYT), 0), nil},
		{"header only", zytEncode(t, header), header},
		{"large again", largeZYT, large},
		{"small again", zytEncode(t, small), small},
	}
	var buf RowBuffer
	var first *Row
	for _, s := range steps {
		got, err := decodeReused(t, s.label, &buf, s.data)
		if s.src == nil {
			if err == nil {
				t.Fatalf("%s: decoded without error", s.label)
			}
			continue
		}
		if !reflect.DeepEqual(got, s.src) {
			t.Fatalf("%s: decoded trace differs from the encoded one", s.label)
		}
		if first == nil {
			first = &got.Rows[0]
		} else if got.Len() > 0 && &got.Rows[0] != first {
			t.Errorf("%s: rows were not decoded into the storage the large trace grew", s.label)
		}
	}
}

// TestRowBufferActorBackingRegrowth decodes a trace whose later blocks
// outgrow the actor backing an earlier, smaller trace left: blocks
// carved before the regrowth keep their agents on the old array.
func TestRowBufferActorBackingRegrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf RowBuffer
	if _, err := decodeReused(t, "one block", &buf, zytEncode(t, randomTrace(rng, zytBlockRows/2))); err != nil {
		t.Fatal(err)
	}
	crowded := randomTrace(rng, 3*zytBlockRows)
	for i := 2 * zytBlockRows; i < len(crowded.Rows); i++ {
		for len(crowded.Rows[i].Actors) < 6 {
			crowded.Rows[i].Actors = append(crowded.Rows[i].Actors, world.Agent{ID: "extra", Speed: float64(i), Length: 4, Width: 2})
		}
	}
	if got, _ := decodeReused(t, "crowded", &buf, zytEncode(t, crowded)); !reflect.DeepEqual(got, crowded) {
		t.Fatal("a trace that regrew the actor backing mid-decode differs from the encoded one")
	}
}
