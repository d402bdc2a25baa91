package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// decodeEntryLine is the fast decoder on a fresh lineDecoder.
func decodeEntryLine(line []byte) (Entry, bool) {
	var d lineDecoder
	return d.entry(line)
}

// putLines Puts one result for each optional field of a manifest line
// (collision or none, a +Inf gap, an ego stop, nil frames processed)
// and returns the lines Put wrote, each with its '\n'.
func putLines(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		seed     int64
		collide  bool
		noFrames bool
	}{
		{seed: 1},                 // no collision, finite gap
		{seed: 2, collide: true},  // collision, ego stopped
		{seed: 3},                 // +Inf gap
		{seed: 5, noFrames: true}, // nil FramesProcessed, written as {}
	} {
		res := syntheticResult("lines", 10, tc.seed, 20, tc.collide)
		if tc.noFrames {
			res.FramesProcessed = nil
		}
		if _, _, err := st.Put("lines", key("lines", 10, tc.seed), res); err != nil {
			tb.Fatal(err)
		}
	}
	return manifestLines(tb, dir)
}

// manifestLines returns dir's non-empty manifest lines, each with its
// '\n'.
func manifestLines(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, l := range splitNonEmptyLines(data) {
		out = append(out, append(l, '\n'))
	}
	return out
}

// TestPutLinesTakeFastPath: every line Put writes, and every line of
// the untagged testdata/sidecar-store manifest, is accepted by
// decodeEntryLine and decodes to json.Unmarshal's entry. A later edit
// to Entry fails here instead of sending every line to json.Unmarshal.
func TestPutLinesTakeFastPath(t *testing.T) {
	lines := putLines(t)
	if len(lines) != 4 {
		t.Fatalf("Put wrote %d lines, want 4", len(lines))
	}
	var seen struct{ collision, infinite, stopped, noCollision bool }
	for _, line := range lines {
		e := checkFastLine(t, line)
		seen.collision = seen.collision || e.Collision != nil
		seen.noCollision = seen.noCollision || e.Collision == nil
		seen.infinite = seen.infinite || e.MinGapInfinite
		seen.stopped = seen.stopped || e.EgoStopped
		if e.HashScheme != HashZYT {
			t.Errorf("Put line has hash scheme %q: %s", e.HashScheme, line)
		}
	}
	if !seen.collision || !seen.noCollision || !seen.infinite || !seen.stopped {
		t.Errorf("Put lines cover %+v, want every optional field", seen)
	}
	if !bytes.Contains(lines[3], []byte(`"frames_processed":{}`)) {
		t.Errorf("nil FramesProcessed line = %s, want frames_processed {}", lines[3])
	}

	fixture := manifestLines(t, filepath.Join("testdata", "sidecar-store"))
	if len(fixture) != 4 {
		t.Fatalf("sidecar-store holds %d lines, want 4", len(fixture))
	}
	for _, line := range fixture {
		if e := checkFastLine(t, line); e.HashScheme != "" {
			t.Errorf("fixture line has hash scheme %q, want untagged", e.HashScheme)
		}
	}
}

// checkFastLine requires decodeEntryLine to accept line and agree with
// json.Unmarshal, and returns the entry.
func checkFastLine(t *testing.T, line []byte) Entry {
	t.Helper()
	got, ok := decodeEntryLine(line)
	if !ok {
		t.Fatalf("fast decoder refused %s", line)
	}
	var want Entry
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast decoder read %+v, json.Unmarshal %+v", got, want)
	}
	return got
}

// TestOpenReadsOtherLineShapes: lines json.Unmarshal accepts but Put
// does not write load through the fallback, to the same entries.
func TestOpenReadsOtherLineShapes(t *testing.T) {
	put := putLines(t)[1]
	dir := t.TempDir()
	var manifest []byte
	for i, edit := range []struct{ old, new string }{
		{`,"`, `, "`}, // whitespace
		{`"scenario":"lines"`, `"Scenario":"lines"`},      // case-folded key
		{`"scenario":"lines"`, `"scenario":"li\u006ees"`}, // escape
		{`"rows":20,`, ``},                                        // missing field
		{`"collision":{`, `"collision":null,"x":{`},               // null, unknown field
		{`"frames_processed":{`, `"frames_processed":null,"y":{`}, // null frames, unknown field
	} {
		shape := bytes.Replace(put, []byte(edit.old), []byte(edit.new), -1)
		shape = bytes.Replace(shape, []byte(`"seed":2`), []byte(`"seed":`+strconv.Itoa(10+i)), 1)
		if _, ok := decodeEntryLine(shape); ok {
			t.Errorf("fast decoder accepted %s", shape)
		}
		manifest = append(manifest, shape...)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := map[Key]Entry{}
	for _, e := range st.Entries() {
		got[e.Key] = e
	}
	if want := manifestEntries(t, dir); len(want) != 6 || !reflect.DeepEqual(got, want) {
		t.Errorf("Open read %d entries that differ from json.Unmarshal's %d", len(got), len(want))
	}
}

// FuzzManifestLine holds lineDecoder.entry to json.Unmarshal on two
// lines decoded in turn by one decoder, as Open decodes a manifest:
// the second line meets the names and previous-line slots the first
// left behind, and overwrites the first in the read buffer before
// either entry is checked. A line the fast decoder accepts must be one
// json.Unmarshal accepts, with a deep-equal Entry. A line
// json.Unmarshal accepts and json.Marshal writes back byte for byte
// must be accepted by the fast decoder, unless it holds a backslash:
// escapes are outside the decoder's shape, and json.Marshal writes them
// only for strings holding quotes, backslashes, control bytes, <, >, &
// or U+2028/U+2029.
func FuzzManifestLine(f *testing.F) {
	var lines [][]byte
	for _, dir := range []string{"legacy-store", "sidecar-store"} {
		lines = append(lines, manifestLines(f, filepath.Join("testdata", dir))...)
	}
	lines = append(lines, putLines(f)...)
	for i, line := range lines {
		f.Add(line, lines[(i+1)%len(lines)])
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var d lineDecoder
		buf := make([]byte, max(len(first), len(second)))
		e1, ok1 := d.entry(buf[:copy(buf, first)])
		clear(buf)
		e2, ok2 := d.entry(buf[:copy(buf, second)])
		checkLineAgainstUnmarshal(t, first, e1, ok1)
		checkLineAgainstUnmarshal(t, second, e2, ok2)
	})
}

func checkLineAgainstUnmarshal(t *testing.T, line []byte, fast Entry, ok bool) {
	t.Helper()
	var ref Entry
	refErr := json.Unmarshal(line, &ref)
	if ok {
		if refErr != nil {
			t.Fatalf("fast decoder accepted %q, json.Unmarshal refused it: %v", line, refErr)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%q: fast decoder read %+v, json.Unmarshal %+v", line, fast, ref)
		}
		return
	}
	if refErr != nil || bytes.IndexByte(line, '\\') >= 0 {
		return
	}
	if out, err := json.Marshal(ref); err == nil && bytes.Equal(append(out, '\n'), line) {
		t.Fatalf("fast decoder refused %q, a line json.Marshal writes", line)
	}
}
