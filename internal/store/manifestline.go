package store

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"unicode/utf8"

	"repro/internal/trace"
)

// lineDecoder reads manifest lines in the shape Put writes. b is the
// unread rest of the current line; a method that reports false may
// leave it anywhere.
type lineDecoder struct {
	b     []byte
	names map[string]string // strings name has returned, by value
	prev  prevNames         // each repeated field's value on the previous line
}

// prevNames holds the value each repeated string field had on the
// previous line, one slot per field (camera names by position), so a
// value that repeats line to line costs a comparison, not a hash.
type prevNames struct {
	fp, sim, scenario, hash, actor string
	cameras                        []string
}

// entry decodes one manifest line of the shape Put writes,
// json.Marshal(Entry) plus '\n', without encoding/json: keys in struct
// order with the omitempty ones optional, no whitespace, strings of
// valid UTF-8 with no escapes or control bytes, and numbers checked
// against the JSON grammar and then parsed with the strconv calls
// encoding/json makes. Any other line (reordered or case-folded keys,
// escapes, whitespace, nulls other than frames_processed's, unknown
// fields, another writer's output) reports false, and the caller falls
// back to json.Unmarshal. An accepted line yields the Entry that
// json.Unmarshal does; FuzzManifestLine holds the two to that. Each
// repeated string (fingerprints, scenario names, camera names) shares
// one copy with the earlier lines d decoded. line is not kept.
func (d *lineDecoder) entry(line []byte) (Entry, bool) {
	d.b = line
	var e Entry
	ok := d.lit(`{"key":{"fp":`) && d.name(&e.Key.Fingerprint, &d.prev.fp) &&
		d.lit(`,"fpr":`) && d.float(&e.Key.FPR) &&
		d.lit(`,"seed":`) && d.int64(&e.Key.Seed) &&
		d.lit(`,"sim":`) && d.name(&e.Key.SimVersion, &d.prev.sim) &&
		d.lit(`},"scenario":`) && d.name(&e.Scenario, &d.prev.scenario) &&
		d.lit(`,"artifact":`) && d.str(&e.Artifact) &&
		(!d.lit(`,"hash":`) || d.name(&e.HashScheme, &d.prev.hash)) &&
		d.lit(`,"rows":`) && d.int(&e.Rows) &&
		d.lit(`,"bytes":`) && d.int64(&e.Bytes) &&
		(!d.lit(`,"collision":{"time":`) || d.collision(&e.Collision)) &&
		d.lit(`,"frames_processed":`) && d.frames(&e.FramesProcessed) &&
		d.lit(`,"min_bumper_gap":`) && d.float(&e.MinBumperGap) &&
		(!d.lit(`,"min_gap_infinite":`) || d.bool(&e.MinGapInfinite)) &&
		(!d.lit(`,"ego_stopped":`) || d.bool(&e.EgoStopped)) &&
		d.lit(`,"recorded_unix":`) && d.int64(&e.RecordedUnix) &&
		d.lit("}\n") && len(d.b) == 0
	if !ok {
		return Entry{}, false
	}
	return e, true
}

// lit consumes s if the rest of the line starts with it. It consumes
// nothing otherwise, which is what lets an omitempty key be tried and
// skipped.
func (d *lineDecoder) lit(s string) bool {
	if len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// quoted reads a quoted string with no escapes and no control bytes,
// which json.Unmarshal would return as the same bytes.
func (d *lineDecoder) quoted() ([]byte, bool) {
	if len(d.b) == 0 || d.b[0] != '"' {
		return nil, false
	}
	n := bytes.IndexByte(d.b[1:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.b[1 : 1+n]
	ascii := true
	for _, c := range s[plainPrefix(s):] {
		if c < 0x20 || c == '\\' {
			return nil, false
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	if !ascii && !utf8.Valid(s) {
		return nil, false
	}
	d.b = d.b[2+n:]
	return s, true
}

// Byte-lane masks for plainPrefix's word-at-a-time tests.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// plainPrefix returns a length, a multiple of 8, of a prefix of s that
// holds only ASCII bytes other than control bytes and backslashes. It
// tests 8 bytes at a time: a lane with its high bit set is non-ASCII;
// when none is, (w - 0x20 per lane) &^ w has some lane's high bit set
// if and only if some lane holds a byte below 0x20; and a backslash is
// a zero lane of w ^ '\\' per lane, found by the same test against 1.
func plainPrefix(s []byte) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		bs := w ^ ('\\' * lanes01)
		if (w|(w-0x20*lanes01)&^w|(bs-lanes01)&^bs)&lanes80 != 0 {
			break
		}
	}
	return i
}

func (d *lineDecoder) str(p *string) bool {
	s, ok := d.quoted()
	*p = string(s)
	return ok
}

// name is str for a string that repeats across lines: it returns the
// copy an earlier line made. prev is the field's slot in d.prev; only a
// value that differs from it is looked up in d.names.
func (d *lineDecoder) name(p, prev *string) bool {
	s, ok := d.quoted()
	if !ok {
		return false
	}
	if string(s) == *prev {
		*p = *prev
		return true
	}
	v, seen := d.names[string(s)]
	if !seen {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		v = string(s)
		d.names[v] = v
	}
	*p, *prev = v, v
	return true
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *lineDecoder) number() ([]byte, bool) {
	b := d.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false
		}
	}
	d.b = b[i:]
	return b[:i], true
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *lineDecoder) float(p *float64) bool {
	n, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(n), 64)
	*p = v
	return err == nil
}

// integer parses like encoding/json into an integer of the given bits.
// A number of at most 18 digits and nothing else, which number has
// checked has no leading zero and which cannot overflow an int64, is
// parsed in place; any other goes to strconv.ParseInt.
func (d *lineDecoder) integer(bits int) (int64, bool) {
	n, ok := d.number()
	if !ok {
		return 0, false
	}
	if v, ok := smallDecimal(n); ok && (bits == 64 || v < 1<<(bits-1)) {
		return v, true
	}
	v, err := strconv.ParseInt(string(n), 10, bits)
	return v, err == nil
}

// smallDecimal parses n if it is 1 to 18 decimal digits.
func smallDecimal(n []byte) (int64, bool) {
	if len(n) == 0 || len(n) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range n {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

func (d *lineDecoder) int64(p *int64) bool {
	v, ok := d.integer(64)
	*p = v
	return ok
}

func (d *lineDecoder) int(p *int) bool {
	v, ok := d.integer(strconv.IntSize)
	*p = int(v)
	return ok
}

func (d *lineDecoder) bool(p *bool) bool {
	switch {
	case d.lit("true"):
		*p = true
	case d.lit("false"):
		*p = false
	default:
		return false
	}
	return true
}

// collision reads the rest of a collision object whose `{"time":` the
// caller consumed.
func (d *lineDecoder) collision(p **trace.Collision) bool {
	c := new(trace.Collision)
	*p = c
	return d.float(&c.Time) && d.lit(`,"actor_id":`) && d.name(&c.ActorID, &d.prev.actor) && d.lit("}")
}

// frames reads frames_processed: null leaves the map nil, as
// json.Unmarshal does, and an object fills a new map, sized for the
// most keys an earlier line held, a repeated key keeping its last
// value.
func (d *lineDecoder) frames(p *map[string]int) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("{") {
		return false
	}
	m := make(map[string]int, len(d.prev.cameras))
	*p = m
	if d.lit("}") {
		return true
	}
	for i := 0; ; i++ {
		if i == len(d.prev.cameras) {
			d.prev.cameras = append(d.prev.cameras, "")
		}
		var k string
		var v int
		if !d.name(&k, &d.prev.cameras[i]) || !d.lit(":") || !d.int(&v) {
			return false
		}
		m[k] = v
		if d.lit("}") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}
