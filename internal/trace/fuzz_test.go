package trace

import (
	"bytes"
	"testing"
)

// FuzzRead drives the JSONL parser with arbitrary bytes: malformed
// input must produce an error, never a panic, and anything Read
// accepts must survive a write→read round trip (the parsed form is
// canonical).
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleTrace().Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"meta":{"scenario":"x","fpr":10}}`))
	f.Add([]byte(`{"meta":{}}` + "\n" + `{"t":0.5,"ego":{"ID":"ego"}}`))
	f.Add([]byte(`{"meta":{}}` + "\n" + `{bad json`))
	f.Add([]byte(`null` + "\n" + `null`))
	f.Add([]byte(`{"meta":{"cameras":["a"]},"collision":{"time":1,"actor_id":"x"}}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed row count: %d -> %d", tr.Len(), tr2.Len())
		}
		if (tr.Collision == nil) != (tr2.Collision == nil) {
			t.Fatal("round trip changed collision presence")
		}
	})
}

// FuzzTraceDecode drives the ZYT1 binary decoder with arbitrary bytes:
// truncation, bit flips, and hostile length claims must all reject
// with an error — no panics, no unbounded allocations — and anything
// the decoder accepts must survive a binary write→read round trip, and
// re-encoding must be idempotent: the store addresses objects by their
// ZYT1 bytes, so WriteZYT(ReadZYT(WriteZYT(tr))) must equal WriteZYT(tr).
// Every input is also decoded into one buffer reused across inputs,
// which must agree with a fresh decode, error for error.
func FuzzTraceDecode(f *testing.F) {
	var reused RowBuffer
	var valid bytes.Buffer
	if err := sampleTrace().WriteZYT(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// The sample without actors or rates, decoded into the buffer the
	// sample left, must not keep the sample's.
	bare := sampleTrace()
	for i := range bare.Rows {
		bare.Rows[i].Actors, bare.Rows[i].Rates = nil, nil
	}
	var bareZYT bytes.Buffer
	if err := bare.WriteZYT(&bareZYT); err != nil {
		f.Fatal(err)
	}
	f.Add(bareZYT.Bytes())
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
		decodeReused(t, "fuzz input", &reused, data)
		tr, err := ReadZYT(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var out bytes.Buffer
		if err := tr.WriteZYT(&out); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		first := append([]byte(nil), out.Bytes()...)
		tr2, err := ReadZYT(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed row count: %d -> %d", tr.Len(), tr2.Len())
		}
		if (tr.Collision == nil) != (tr2.Collision == nil) {
			t.Fatal("round trip changed collision presence")
		}
		var again bytes.Buffer
		if err := tr2.WriteZYT(&again); err != nil {
			t.Fatalf("re-decoded trace failed to re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), first) {
			t.Fatal("re-encoding a decoded trace changed its ZYT1 bytes")
		}
	})
}
