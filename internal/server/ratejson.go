package server

// ratejson.go is the hand-rolled JSON codec behind the pooled
// POST /v1/rate path. The decoder parses a RateRequest directly from
// the request bytes into reused scratch storage — no reflection, no
// intermediate values, actor IDs interned so repeated snapshots from
// the same fleet never allocate. It is deliberately bug-compatible
// with encoding/json's Decoder semantics (case-insensitive field
// matching, null handling, duplicate-key merging, trailing data
// ignored after a complete top-level value); FuzzRateRequestDecode
// pins the agreement. The encoder emits byte-for-byte what
// WriteJSON (json.MarshalIndent + newline) produced before this path
// existed, so the response body is indistinguishable from the
// reflective one — the golden wire test pins that.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDecodeDepth mirrors encoding/json's nesting limit.
const maxDecodeDepth = 10000

// Precomputed field names for case-insensitive matching without
// converting constants per call.
var (
	keyTime      = []byte("time")
	keyEgo       = []byte("ego")
	keyActors    = []byte("actors")
	keyOperating = []byte("operating")

	keyID      = []byte("id")
	keyX       = []byte("x")
	keyY       = []byte("y")
	keyHeading = []byte("heading")
	keySpeed   = []byte("speed")
	keyAccel   = []byte("accel")
	keyLatVel  = []byte("lat_vel")
	keyLength  = []byte("length")
	keyWidth   = []byte("width")
	keyLane    = []byte("lane")
	keyStatic  = []byte("static")
)

// rateDecoder walks one request body. Errors allocate (they leave the
// hot path); success does not, beyond first-seen ID interning.
type rateDecoder struct {
	sc    *rateScratch
	data  []byte
	pos   int
	depth int
}

func (d *rateDecoder) errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func (d *rateDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the current byte, or 0 at end of input.
func (d *rateDecoder) peek() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

func (d *rateDecoder) push() error {
	d.depth++
	if d.depth > maxDecodeDepth {
		return d.errf("exceeded max depth")
	}
	return nil
}

func (d *rateDecoder) literal(s string) error {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return d.errf("invalid literal at offset %d", d.pos)
	}
	d.pos += len(s)
	return nil
}

// decodeRequest parses one top-level RateRequest value into the
// scratch. Like json.Decoder.Decode, anything after a syntactically
// complete top-level value is ignored.
func (d *rateDecoder) decodeRequest() error {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return io.EOF
	}
	switch c := d.data[d.pos]; c {
	case 'n':
		return d.literal("null") // null body: zero request, like json
	case '{':
	default:
		return d.errf("invalid character %q looking for request object", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		d.skipSpace()
		key, err := d.parseString()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.errf("invalid character %q after object key", d.peek())
		}
		d.pos++
		switch {
		case bytes.EqualFold(key, keyTime):
			err = d.floatField(&d.sc.req.Time)
		case bytes.EqualFold(key, keyEgo):
			err = d.decodeAgent(&d.sc.req.Ego)
		case bytes.EqualFold(key, keyActors):
			err = d.decodeActors()
		case bytes.EqualFold(key, keyOperating):
			err = d.decodeOperating()
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch c := d.peek(); c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errf("invalid character %q after object value", c)
		}
	}
}

// decodeAgent merges one JSON object into dst, mirroring
// encoding/json's struct decoding (null is a no-op, unknown fields are
// skipped, fields match case-insensitively).
func (d *rateDecoder) decodeAgent(dst *AgentState) error {
	d.skipSpace()
	switch c := d.peek(); c {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.errf("invalid character %q decoding agent object", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		d.skipSpace()
		key, err := d.parseString()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.errf("invalid character %q after object key", d.peek())
		}
		d.pos++
		switch {
		case bytes.EqualFold(key, keyID):
			err = d.stringField(&dst.ID)
		case bytes.EqualFold(key, keyX):
			err = d.floatField(&dst.X)
		case bytes.EqualFold(key, keyY):
			err = d.floatField(&dst.Y)
		case bytes.EqualFold(key, keyHeading):
			err = d.floatField(&dst.Heading)
		case bytes.EqualFold(key, keySpeed):
			err = d.floatField(&dst.Speed)
		case bytes.EqualFold(key, keyAccel):
			err = d.floatField(&dst.Accel)
		case bytes.EqualFold(key, keyLatVel):
			err = d.floatField(&dst.LatVel)
		case bytes.EqualFold(key, keyLength):
			err = d.floatField(&dst.Length)
		case bytes.EqualFold(key, keyWidth):
			err = d.floatField(&dst.Width)
		case bytes.EqualFold(key, keyLane):
			err = d.intField(&dst.Lane)
		case bytes.EqualFold(key, keyStatic):
			err = d.boolField(&dst.Static)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch c := d.peek(); c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errf("invalid character %q after object value", c)
		}
	}
}

// decodeActors replicates slice decoding onto the reused scratch
// slice, including encoding/json's oddities: null resets the slice;
// re-decoding (a duplicate key) merges element-wise into the existing
// backing array without zeroing. The scratch zeroes its full capacity
// between requests, so each request starts from the same all-zero
// state a fresh Unmarshal destination would.
func (d *rateDecoder) decodeActors() error {
	d.skipSpace()
	switch c := d.peek(); c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		as := d.sc.req.Actors[:cap(d.sc.req.Actors)]
		for i := range as {
			as[i] = AgentState{}
		}
		d.sc.req.Actors = as[:0]
		return nil
	case '[':
	default:
		return d.errf("invalid character %q decoding actors array", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		d.sc.req.Actors = d.sc.req.Actors[:0]
		return nil
	}
	i := 0
	for {
		if i >= len(d.sc.req.Actors) {
			if i < cap(d.sc.req.Actors) {
				// Re-expose prior backing memory, exactly as reflect
				// SetLen does inside encoding/json.
				d.sc.req.Actors = d.sc.req.Actors[:i+1]
			} else {
				d.sc.req.Actors = append(d.sc.req.Actors, AgentState{})
			}
		}
		if err := d.decodeAgent(&d.sc.req.Actors[i]); err != nil {
			return err
		}
		i++
		d.skipSpace()
		switch c := d.peek(); c {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			d.sc.req.Actors = d.sc.req.Actors[:i]
			return nil
		default:
			return d.errf("invalid character %q after array element", c)
		}
	}
}

func (d *rateDecoder) decodeOperating() error {
	d.skipSpace()
	switch c := d.peek(); c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		clear(d.sc.req.Operating)
		return nil
	case '{':
	default:
		return d.errf("invalid character %q decoding operating map", c)
	}
	d.pos++
	if err := d.push(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		d.skipSpace()
		key, err := d.parseString()
		if err != nil {
			return err
		}
		k := d.sc.intern(key)
		d.skipSpace()
		if d.peek() != ':' {
			return d.errf("invalid character %q after object key", d.peek())
		}
		d.pos++
		d.skipSpace()
		var v float64
		if d.peek() == 'n' {
			// json sets the map key to the element's zero value.
			if err := d.literal("null"); err != nil {
				return err
			}
		} else if err := d.floatField(&v); err != nil {
			return err
		}
		d.sc.req.Operating[k] = v
		d.skipSpace()
		switch c := d.peek(); c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errf("invalid character %q after object value", c)
		}
	}
}

// floatField decodes a JSON number (or null, a no-op) into dst.
func (d *rateDecoder) floatField(dst *float64) error {
	d.skipSpace()
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errf("invalid character %q decoding number", c)
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	// The conversion of a short literal stays on the stack.
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

// intField decodes a JSON number into an int with encoding/json's
// semantics: the literal must parse as a base-10 integer (3.0 and 3e2
// are errors), range-checked against int64.
func (d *rateDecoder) intField(dst *int) error {
	d.skipSpace()
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errf("invalid character %q decoding number", c)
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	n, err := parseJSONInt(lit)
	if err != nil {
		return err
	}
	*dst = int(n)
	return nil
}

func (d *rateDecoder) boolField(dst *bool) error {
	d.skipSpace()
	switch d.peek() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*dst = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*dst = false
		return nil
	case 'n':
		return d.literal("null")
	default:
		return d.errf("invalid character %q decoding bool", d.peek())
	}
}

// stringField decodes a JSON string (or null, a no-op) into dst,
// interning the value so the steady state never allocates.
func (d *rateDecoder) stringField(dst *string) error {
	d.skipSpace()
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '"' {
		return d.errf("invalid character %q decoding string", c)
	}
	b, err := d.parseString()
	if err != nil {
		return err
	}
	*dst = d.sc.intern(b)
	return nil
}

// parseString parses the string starting at the current position and
// returns its decoded bytes — a view into the input when no escapes or
// invalid UTF-8 are present, the scratch unescape buffer otherwise.
// The result is valid only until the next parseString call.
func (d *rateDecoder) parseString() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errf("invalid character %q looking for string", d.peek())
	}
	d.pos++
	start := d.pos
	simple := true
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			s := d.data[start:d.pos]
			d.pos++
			if simple {
				return s, nil
			}
			return d.sc.unescape(s), nil
		case c == '\\':
			simple = false
			d.pos++
			if d.pos >= len(d.data) {
				return nil, d.errf("unexpected end of string")
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				if len(d.data)-d.pos < 4 || !isHex4(d.data[d.pos:d.pos+4]) {
					return nil, d.errf("invalid \\u escape")
				}
				d.pos += 4
			default:
				return nil, d.errf("invalid escape character %q in string", d.data[d.pos])
			}
		case c < 0x20:
			return nil, d.errf("invalid control character %#x in string", c)
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				simple = false // replaced with U+FFFD by unescape
			}
			d.pos += size
		}
	}
	return nil, d.errf("unexpected end of string")
}

// skipString validates a string without decoding it (escapes and
// control characters are checked; UTF-8 is not, matching the scanner).
func (d *rateDecoder) skipString() error {
	d.pos++ // opening quote, already checked by caller
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return d.errf("unexpected end of string")
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				if len(d.data)-d.pos < 4 || !isHex4(d.data[d.pos:d.pos+4]) {
					return d.errf("invalid \\u escape")
				}
				d.pos += 4
			default:
				return d.errf("invalid escape character %q in string", d.data[d.pos])
			}
		case c < 0x20:
			return d.errf("invalid control character %#x in string", c)
		default:
			d.pos++
		}
	}
	return d.errf("unexpected end of string")
}

// skipValue validates and discards one JSON value of any shape.
// Numbers are grammar-checked but not range-checked, exactly like
// encoding/json skipping an unknown field.
func (d *rateDecoder) skipValue() error {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return d.errf("unexpected end of input")
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		return d.skipString()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.scanNumber()
		return err
	case c == '{':
		d.pos++
		if err := d.push(); err != nil {
			return err
		}
		defer func() { d.depth-- }()
		d.skipSpace()
		if d.peek() == '}' {
			d.pos++
			return nil
		}
		for {
			d.skipSpace()
			if d.peek() != '"' {
				return d.errf("invalid character %q looking for object key", d.peek())
			}
			if err := d.skipString(); err != nil {
				return err
			}
			d.skipSpace()
			if d.peek() != ':' {
				return d.errf("invalid character %q after object key", d.peek())
			}
			d.pos++
			if err := d.skipValue(); err != nil {
				return err
			}
			d.skipSpace()
			switch c := d.peek(); c {
			case ',':
				d.pos++
			case '}':
				d.pos++
				return nil
			default:
				return d.errf("invalid character %q after object value", c)
			}
		}
	case c == '[':
		d.pos++
		if err := d.push(); err != nil {
			return err
		}
		defer func() { d.depth-- }()
		d.skipSpace()
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(); err != nil {
				return err
			}
			d.skipSpace()
			switch c := d.peek(); c {
			case ',':
				d.pos++
			case ']':
				d.pos++
				return nil
			default:
				return d.errf("invalid character %q after array element", c)
			}
		}
	default:
		return d.errf("invalid character %q looking for value", c)
	}
}

// scanNumber consumes one number per the JSON grammar and returns its
// literal bytes.
func (d *rateDecoder) scanNumber() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.pos++
		for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
			d.pos++
		}
	default:
		return nil, d.errf("invalid character %q in number", c)
	}
	if d.peek() == '.' {
		d.pos++
		c := d.peek()
		if c < '0' || c > '9' {
			return nil, d.errf("invalid character %q after decimal point", c)
		}
		for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
			d.pos++
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		c := d.peek()
		if c < '0' || c > '9' {
			return nil, d.errf("invalid character %q in exponent", c)
		}
		for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
			d.pos++
		}
	}
	return d.data[start:d.pos], nil
}

// parseJSONInt converts a grammar-valid JSON number literal with
// strconv.ParseInt semantics: fractions and exponents are errors, as
// is anything outside int64.
func parseJSONInt(lit []byte) (int64, error) {
	for _, c := range lit {
		if c == '.' || c == 'e' || c == 'E' {
			return 0, fmt.Errorf("cannot decode number %s into an integer field", lit)
		}
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("number %s overflows an integer field", lit)
	}
	return n, nil
}

func isHex4(b []byte) bool {
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return false
		}
	}
	return true
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			r = r<<4 | rune(c-'A'+10)
		}
	}
	return r
}

// unescape decodes a scanned string body (escapes pre-validated) into
// the scratch buffer, replicating encoding/json's unquote: \uXXXX with
// UTF-16 surrogate pairing, lone surrogates and invalid UTF-8 replaced
// with U+FFFD.
func (sc *rateScratch) unescape(s []byte) []byte {
	b := sc.strbuf[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			i++
			switch s[i] {
			case '"', '\\', '/':
				b = append(b, s[i])
				i++
			case 'b':
				b = append(b, '\b')
				i++
			case 'f':
				b = append(b, '\f')
				i++
			case 'n':
				b = append(b, '\n')
				i++
			case 'r':
				b = append(b, '\r')
				i++
			case 't':
				b = append(b, '\t')
				i++
			case 'u':
				rr := hex4(s[i+1 : i+5])
				i += 5
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if len(s)-i >= 6 && s[i] == '\\' && s[i+1] == 'u' && isHex4(s[i+2:i+6]) {
						rr1 = hex4(s[i+2 : i+6])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
				i++
				continue
			}
			b = append(b, s[i:i+size]...)
			i += size
		}
	}
	sc.strbuf = b
	return b
}

// ---------------------------------------------------------------------
// Encoder: byte-identical to json.MarshalIndent(v, "", "  ") plus the
// trailing newline WriteJSON appends.

const jsonHex = "0123456789abcdef"

// appendIndent starts a new line at the given indent level.
func appendIndent(b []byte, level int) []byte {
	b = append(b, '\n')
	for i := 0; i < level; i++ {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendJSONFloat appends a float with encoding/json's formatting
// (shortest round-trip form, exponent form outside [1e-6, 1e21), the
// e-0X exponent cleanup). It reports false for non-finite values,
// which JSON cannot represent — the caller falls back to the
// reflective path for the identical error response.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString appends a quoted string with encoding/json's
// default escaping: HTML-significant characters escaped, invalid UTF-8
// replaced, U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `�`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloatMapIndent appends a map[string]float64 with sorted keys
// at the given indent level, reusing the scratch key slice.
func (sc *rateScratch) appendFloatMapIndent(b []byte, m map[string]float64, level int) ([]byte, bool) {
	if m == nil {
		return append(b, "null"...), true
	}
	if len(m) == 0 {
		return append(b, '{', '}'), true
	}
	sc.keys = sc.keys[:0]
	for k := range m {
		sc.keys = append(sc.keys, k)
	}
	slices.Sort(sc.keys)
	b = append(b, '{')
	ok := true
	for i, k := range sc.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIndent(b, level+1)
		b = appendJSONString(b, k)
		b = append(b, ':', ' ')
		b, ok = appendJSONFloat(b, m[k])
		if !ok {
			return b, false
		}
	}
	b = appendIndent(b, level)
	return append(b, '}'), true
}

// encodeJSONResponse renders the response from the scratch's computed
// state. It reports false when a non-finite float reaches the wire
// (JSON cannot carry it); the handler then falls back to WriteJSON for
// the identical legacy 500.
func (sc *rateScratch) encodeJSONResponse() bool {
	b := sc.out[:0]
	ok := true
	b = append(b, "{\n  \"time\": "...)
	if b, ok = appendJSONFloat(b, sc.e.Time); !ok {
		return false
	}
	b = append(b, ",\n  \"camera_fpr\": "...)
	if b, ok = sc.appendFloatMapIndent(b, sc.e.CameraFPR, 1); !ok {
		return false
	}
	b = append(b, ",\n  \"sum_fpr\": "...)
	if b, ok = appendJSONFloat(b, sc.sumFPR); !ok {
		return false
	}
	b = append(b, ",\n  \"max_fpr\": "...)
	if b, ok = appendJSONFloat(b, sc.maxFPR); !ok {
		return false
	}
	b = append(b, ",\n  \"rates\": "...)
	if b, ok = sc.appendFloatMapIndent(b, sc.rates, 1); !ok {
		return false
	}
	if sc.hasCheck {
		b = append(b, ",\n  \"check\": {\n    \"ok\": "...)
		if sc.chk.OK {
			b = append(b, "true"...)
		} else {
			b = append(b, "false"...)
		}
		b = append(b, ",\n    \"action\": "...)
		b = appendJSONString(b, sc.chk.Action.String())
		if len(sc.chk.Alarms) > 0 {
			b = append(b, ",\n    \"alarms\": ["...)
			for i, a := range sc.chk.Alarms {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendIndent(b, 3)
				b = append(b, "{\n        \"camera\": "...)
				b = appendJSONString(b, a.Camera)
				b = append(b, ",\n        \"required\": "...)
				if b, ok = appendJSONFloat(b, a.Required); !ok {
					return false
				}
				b = append(b, ",\n        \"operating\": "...)
				if b, ok = appendJSONFloat(b, a.Operating); !ok {
					return false
				}
				b = append(b, "\n      }"...)
			}
			b = append(b, "\n    ]"...)
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, "\n}\n"...)
	sc.out = b
	return true
}
