package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"repro/internal/trace"
)

// longName is a scenario name longer than the 256 KiB the manifest
// reader buffers, so a line holding it is gathered across reads.
var longName = strings.Repeat("long-scenario/", (300<<10)/14)

// variedLines returns n manifest lines in the shape Put writes. As in a
// Table-1 store, each fingerprint and scenario repeats over a run of 12
// rates; the optional fields, the camera sets (by name, order and
// count), the sim version and the hash scheme vary between lines, and
// every 50th line re-records the key of a line 30 earlier.
func variedLines(n int) [][]byte {
	cameraSets := [][]string{
		{"front120", "left", "right"},
		{"front120", "left", "right"},
		{"left", "right"},
		{"front120", "front60", "left", "right", "rear"},
		nil,
		{},
		{"right", "left", "front120"},
		{"caméra-avant", "left"},
	}
	out := make([][]byte, 0, n)
	var keys []Key
	for i := 0; i < n; i++ {
		k := Key{
			Fingerprint: fmt.Sprintf("%064x", 1+i/12%9),
			FPR:         float64(i%12+1) / 2,
			Seed:        int64(i / 108),
			SimVersion:  "sim-v1",
		}
		if i%100 == 7 {
			k.SimVersion = "sim-v2"
		}
		if i%50 == 49 {
			k = keys[i-30]
		}
		keys = append(keys, k)
		e := Entry{
			Key:          k,
			Scenario:     fmt.Sprintf("scn-%d", i/12%9),
			Artifact:     fmt.Sprintf("%064x", i*7919),
			HashScheme:   HashZYT,
			Rows:         i * 13 % 5000,
			Bytes:        int64(i) * 1009,
			MinBumperGap: float64(i%50) * 0.37,
			EgoStopped:   i%3 == 0,
			RecordedUnix: 1792205474 + int64(i),
		}
		if i%10 == 3 {
			e.HashScheme = ""
		}
		if i%17 == 0 {
			e.MinBumperGap, e.MinGapInfinite = 0, true
		}
		if i%4 == 1 {
			e.Collision = &trace.Collision{Time: float64(i%30) * 0.01, ActorID: fmt.Sprintf("a%d", i%3)}
		}
		if cams := cameraSets[i%len(cameraSets)]; cams != nil {
			e.FramesProcessed = map[string]int{}
			for j, c := range cams {
				e.FramesProcessed[c] = i%40 + j
			}
		}
		line, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		out = append(out, append(line, '\n'))
	}
	return out
}

// withScenario returns line with its scenario name replaced by name.
func withScenario(t *testing.T, line []byte, name string) []byte {
	t.Helper()
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatal(err)
	}
	e.Scenario = name
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// fallbackShaped returns line with whitespace after its first comma,
// a line json.Unmarshal reads and the fast decoder refuses.
func fallbackShaped(t *testing.T, line []byte) []byte {
	t.Helper()
	out := bytes.Replace(line, []byte(`,"`), []byte(`, "`), 1)
	if _, ok := decodeEntryLine(out); ok {
		t.Fatalf("fast decoder accepted %.80s", out)
	}
	return out
}

// writeManifest writes lines as dir's manifest.
func writeManifest(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMatchesUnmarshal: each Entry Open indexes deep-equals
// json.Unmarshal of the last manifest line for its key, over a
// synthetic manifest larger than the reader's buffer, the legacy-store
// fixture, and a manifest that interleaves the two with fallback-shaped
// lines. The synthetic manifest holds a fast-shaped and a
// fallback-shaped line longer than the buffer.
func TestOpenMatchesUnmarshal(t *testing.T) {
	synthetic := variedLines(1200)
	longFast := withScenario(t, synthetic[500], longName)
	if _, ok := decodeEntryLine(longFast); !ok {
		t.Fatal("fast decoder refused the long Put-shaped line")
	}
	longFallback := fallbackShaped(t, withScenario(t, synthetic[501], longName+"/fallback"))
	synthetic[500], synthetic[501] = longFast, longFallback

	legacy := manifestLines(t, filepath.Join("testdata", "legacy-store"))
	var mixed [][]byte
	for i, line := range variedLines(400) {
		switch {
		case i%7 == 2:
			line = fallbackShaped(t, line)
		case i%40 == 5:
			mixed = append(mixed, legacy[i/40%len(legacy)])
		}
		mixed = append(mixed, line)
	}
	mixed = append(mixed, legacy...)

	for _, tc := range []struct {
		name  string
		lines [][]byte
	}{
		{"synthetic", synthetic},
		{"legacy-store", legacy},
		{"mixed", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeManifest(t, dir, tc.lines...)
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			want := manifestEntries(t, dir)
			if st.Len() != len(want) {
				t.Fatalf("Open indexed %d keys, the manifest holds %d", st.Len(), len(want))
			}
			for k, w := range want {
				if got, ok := st.Lookup(k); !ok || !reflect.DeepEqual(got, w) {
					t.Fatalf("Open indexed %+v (found %v) for the line json.Unmarshal reads as %+v", got, ok, w)
				}
			}
		})
	}
}

// TestTornTailPickedUpByRefresh: an unterminated final line, one that
// fits the reader's buffer or one longer than it, is left unconsumed
// by Open, and a Refresh after its writer finishes the line indexes it.
func TestTornTailPickedUpByRefresh(t *testing.T) {
	lines := variedLines(3)
	for _, last := range [][]byte{lines[2], withScenario(t, lines[2], longName)} {
		dir := t.TempDir()
		cut := len(last) - 40
		writeManifest(t, dir, lines[0], lines[1], last[:cut])
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("torn tail not tolerated: %v", err)
		}
		defer st.Close()
		if st.Len() != 2 {
			t.Fatalf("Len with a torn tail = %d, want 2", st.Len())
		}
		f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(last[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		st.Refresh()
		var want Entry
		if err := json.Unmarshal(last, &want); err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Lookup(want.Key); !ok || !reflect.DeepEqual(got, want) || st.Len() != 3 {
			t.Errorf("after Refresh: Len %d, Lookup found %v, entry equal %v", st.Len(), ok, reflect.DeepEqual(got, want))
		}
	}
}

// TestBadLineOffsets: a line json.Unmarshal refuses is fatal anywhere
// but in final position, and the error names its byte offset, also
// after a line longer than the reader's buffer. In final position it
// is tolerated.
func TestBadLineOffsets(t *testing.T) {
	lines := variedLines(2)
	long := withScenario(t, lines[0], longName)
	bad := []byte("not json\n")
	var e Entry
	refErr := json.Unmarshal(bad, &e)
	for _, first := range [][]byte{lines[0], long} {
		dir := t.TempDir()
		writeManifest(t, dir, first, bad, lines[1])
		_, err := Open(dir)
		want := fmt.Sprintf("store: manifest offset %d: %v", len(first), refErr)
		if err == nil || err.Error() != want {
			t.Errorf("interior bad line: Open error %v, want %q", err, want)
		}

		writeManifest(t, dir, first, lines[1], bad)
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("final bad line not tolerated: %v", err)
		}
		if st.Len() != 2 {
			t.Errorf("Len with a final bad line = %d, want 2", st.Len())
		}
		st.Close()
	}
}

// TestNameSlotsSkipRepeatLookups: a line whose repeated strings all
// equal the previous line's decodes without a names lookup, to the
// previous line's copies, and a line that changes one of them looks up
// that one alone: each field has its own previous-line slot.
func TestNameSlotsSkipRepeatLookups(t *testing.T) {
	a := putLines(t)[1] // a collision line: every repeated field is present
	b := bytes.Replace(a, []byte(`"seed":2`), []byte(`"seed":9`), 1)
	c := bytes.Replace(b, []byte(`"scenario":"lines"`), []byte(`"scenario":"other"`), 1)
	var d lineDecoder
	ea, ok := d.entry(a)
	if !ok || ea.Collision == nil || ea.HashScheme == "" || len(ea.FramesProcessed) != 3 {
		t.Fatalf("decoded %+v (ok %v), want a tagged collision line with 3 cameras", ea, ok)
	}
	d.names = nil
	eb, ok := d.entry(b)
	if !ok {
		t.Fatal("fast decoder refused the repeated line")
	}
	if len(d.names) != 0 {
		t.Errorf("repeated line looked up %d names, want 0", len(d.names))
	}
	for _, p := range [][2]string{
		{ea.Key.Fingerprint, eb.Key.Fingerprint},
		{ea.Key.SimVersion, eb.Key.SimVersion},
		{ea.Scenario, eb.Scenario},
		{ea.HashScheme, eb.HashScheme},
		{ea.Collision.ActorID, eb.Collision.ActorID},
	} {
		if unsafe.StringData(p[0]) != unsafe.StringData(p[1]) {
			t.Errorf("%q was copied again, want the previous line's copy", p[1])
		}
	}
	if _, ok := d.entry(c); !ok {
		t.Fatal("fast decoder refused the changed line")
	}
	if _, seen := d.names["other"]; !seen || len(d.names) != 1 {
		t.Errorf("line changing the scenario looked up %v, want [other]", d.names)
	}
}

// TestLineIntegersMatchUnmarshal: every integer field takes exactly
// the literals json.Unmarshal takes, to the same values: leading
// zeros, signs, fractions, exponents and the int64 limits among them.
func TestLineIntegersMatchUnmarshal(t *testing.T) {
	line := putLines(t)[0]
	fields := []string{`"seed":1`, `"rows":20`, `"bytes":`, `"front120":6`, `"recorded_unix":`}
	literals := []string{
		"0", "7", "00", "01", "007", "-0", "-1", "-01", "1.0", "1e3", "0e0", "+1",
		"123456789012345678", "999999999999999999", "012345678901234567",
		"1234567890123456789", "9223372036854775807", "9223372036854775808",
		"9999999999999999999", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999",
	}
	for _, f := range fields {
		i := bytes.Index(line, []byte(f))
		if i < 0 {
			t.Fatalf("no %s in %s", f, line)
		}
		start := i + bytes.IndexByte([]byte(f), ':') + 1
		end := digits(line, start)
		for _, lit := range literals {
			edited := append(append(append([]byte(nil), line[:start]...), lit...), line[end:]...)
			got, ok := decodeEntryLine(edited)
			var want Entry
			err := json.Unmarshal(edited, &want)
			if ok != (err == nil) || ok && !reflect.DeepEqual(got, want) {
				t.Errorf("%s%s: fast decoder ok %v %+v; json.Unmarshal err %v %+v", f[:strings.IndexByte(f, ':')+1], lit, ok, got, err, want)
			}
		}
	}
}

// TestQuotedMatchesByteScan: quoted, which tests 8 bytes at a time,
// accepts exactly the strings a byte-by-byte scan does: no control
// byte, no backslash, valid UTF-8.
func TestQuotedMatchesByteScan(t *testing.T) {
	alphabet := []byte{0x00, 0x1f, 0x20, '!', '[', '\\', ']', 'a', 0x7f, 0x80, 0xa9, 0xbf, 0xc3, 0xe2, 0xff}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		s := make([]byte, rng.Intn(41))
		for i := range s {
			s[i] = 'a'
			if rng.Intn(6) == 0 {
				s[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		want := utf8.Valid(s)
		for _, c := range s {
			want = want && c >= 0x20 && c != '\\'
		}
		d := lineDecoder{b: append(append([]byte{'"'}, s...), `",`...)}
		got, ok := d.quoted()
		if ok != want || ok && (!bytes.Equal(got, s) || string(d.b) != ",") {
			t.Fatalf("quoted(%q) = %q, %v; want %v", s, got, ok, want)
		}
	}
}
