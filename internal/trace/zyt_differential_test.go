package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// decodeBoth runs the current and the frozen decoder over data.
func decodeBoth(data []byte) (got, want *Trace, gotErr, wantErr error) {
	got, gotErr = ReadZYT(bytes.NewReader(data))
	want, wantErr = FrozenReadZYT(bytes.NewReader(data))
	return got, want, gotErr, wantErr
}

// TestZYTMatchesFrozenDecoderRandom: over generated traces with rate
// maps, nil and empty actor slices, and traces spanning more than one
// block, the current decoder returns what the frozen one does, and
// every truncation of a small encoding is rejected by both.
func TestZYTMatchesFrozenDecoderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{0, 1, 7, 8, 9, 120, zytBlockRows, zytBlockRows + 257, 2*zytBlockRows + 1}
	for _, n := range sizes {
		tr := randomTrace(rng, n)
		var buf bytes.Buffer
		if err := tr.WriteZYT(&buf); err != nil {
			t.Fatal(err)
		}
		got, want, gotErr, wantErr := decodeBoth(buf.Bytes())
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%d rows: decode errors: current %v, frozen %v", n, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d rows: current decoder disagrees with the frozen one", n)
		}
		if direct, err := DecodeZYT(buf.Bytes()); err != nil || !reflect.DeepEqual(direct, want) {
			t.Fatalf("%d rows: DecodeZYT disagrees with the frozen decoder (err %v)", n, err)
		}
	}
	var buf bytes.Buffer
	if err := randomTrace(rng, 40).WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		_, _, gotErr, wantErr := decodeBoth(full[:n])
		if gotErr == nil || wantErr == nil {
			t.Fatalf("truncation to %d/%d bytes: current err %v, frozen err %v", n, len(full), gotErr, wantErr)
		}
	}
}

// FuzzZYTMatchesFrozenDecoder: on any input both decoders accept or
// both reject, and what they accept is deep-equal. Seeded as
// FuzzTraceDecode is.
func FuzzZYTMatchesFrozenDecoder(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleTrace().WriteZYT(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := (&Trace{Meta: Meta{Scenario: "e", FPR: 5}}).WriteZYT(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(""))
	f.Add([]byte(ZYTMagic))
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(append([]byte(ZYTMagic), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)) // huge frame claim
	f.Add(append([]byte(ZYTMagic), 0x02, 0x03, 0xFF, 0xFF, 0x7F))       // huge row count
	flipped := append([]byte{}, valid.Bytes()...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, want, gotErr, wantErr := decodeBoth(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ: current err %v, frozen err %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatal("both decoders accept, but their traces differ")
		}
		if direct, err := DecodeZYT(data); (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(direct, want)) {
			t.Fatalf("DecodeZYT disagrees with the frozen decoder: err %v, frozen err %v", err, wantErr)
		}
	})
}

// TestZYTCursorUvarintMatchesBinary pins the cursor's one-byte and
// word-at-a-time paths to binary.Uvarint: same value, same length, and
// the same verdict on truncated, overlong and overflowing encodings,
// with and without the bytes a word load needs after the value.
func TestZYTCursorUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			inputs = append(inputs, binary.AppendUvarint(nil, v))
		}
	}
	inputs = append(inputs,
		[]byte{0x80, 0x00}, // overlong zero
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // max uint64
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, // overflow
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	)
	rng := rand.New(rand.NewSource(5))
	for range 2000 {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256)) | byte(rng.Intn(2))<<7
		}
		inputs = append(inputs, b)
	}
	for _, in := range inputs {
		for _, pad := range []int{0, 1, 9, 16} {
			p := append(append([]byte{}, in...), make([]byte, pad)...)
			for cut := 0; cut <= len(p); cut++ {
				c := zytCursor{p: p[:cut]}
				got := c.uvarint()
				want, n := binary.Uvarint(p[:cut])
				if (c.err == nil) != (n > 0) || (n > 0 && (got != want || c.off != n)) {
					t.Fatalf("% x[:%d]: cursor (%d, off %d, err %v), binary.Uvarint (%d, %d)", p, cut, got, c.off, c.err, want, n)
				}
			}
		}
	}
}
