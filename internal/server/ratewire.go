package server

// ratewire.go is the optional length-prefixed binary wire format for
// POST /v1/rate, negotiated by Content-Type. It exists for callers on
// the tightest loops — a closed-loop controller polling at camera
// rate — where the JSON wire's encoding/json decode and MarshalIndent
// encode are measurable: the frame is fixed-layout little-endian, the
// server decodes and encodes it with zero allocations, and clients use
// the exported Append/Decode helpers (zhuyi.Client.RateBinary rides on
// them). A request frame carries only finite floats, as JSON does.
// Errors are always answered in JSON regardless of the request format,
// so error handling needs no second code path. docs/api.md documents
// the frame layout.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// RateBinaryContentType selects the binary rate wire format when sent
// as a request Content-Type on POST /v1/rate; successful responses are
// answered in the same format (errors stay JSON).
const RateBinaryContentType = "application/x-zhuyi-rate"

// Frame magics: request and response frames are distinguishable on the
// wire so a mis-routed frame fails loudly instead of mis-decoding.
const (
	rateReqMagic  = "ZYR1"
	rateRespMagic = "ZYS1"
)

// agentBinarySize is the fixed tail of one agent record after its
// variable-length ID: 8 float64 kinematic fields, an int32 lane, and a
// flags byte.
const agentBinarySize = 8*8 + 4 + 1

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendName appends a uint16-length-prefixed string.
func appendName(b []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return b, fmt.Errorf("rate binary: name longer than 65535 bytes")
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

func appendAgentBinary(b []byte, a AgentState) ([]byte, error) {
	b, err := appendName(b, a.ID)
	if err != nil {
		return b, err
	}
	b = appendF64(b, a.X)
	b = appendF64(b, a.Y)
	b = appendF64(b, a.Heading)
	b = appendF64(b, a.Speed)
	b = appendF64(b, a.Accel)
	b = appendF64(b, a.LatVel)
	b = appendF64(b, a.Length)
	b = appendF64(b, a.Width)
	if a.Lane < math.MinInt32 || a.Lane > math.MaxInt32 {
		return b, fmt.Errorf("rate binary: lane %d overflows int32", a.Lane)
	}
	b = appendU32(b, uint32(int32(a.Lane)))
	var flags byte
	if a.Static {
		flags |= 1
	}
	return append(b, flags), nil
}

// AppendRateRequestBinary appends one binary rate request frame to dst
// and returns the extended slice. Operating keys are emitted sorted,
// so identical requests produce identical frames. The frame layout is
// documented in docs/api.md.
func AppendRateRequestBinary(dst []byte, req RateRequest) ([]byte, error) {
	start := len(dst)
	dst = appendU32(dst, 0) // frame length, patched below
	dst = append(dst, rateReqMagic...)
	dst = appendF64(dst, req.Time)
	var err error
	if dst, err = appendAgentBinary(dst, req.Ego); err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(len(req.Actors)))
	for _, a := range req.Actors {
		if dst, err = appendAgentBinary(dst, a); err != nil {
			return dst, err
		}
	}
	dst = appendU32(dst, uint32(len(req.Operating)))
	keys := make([]string, 0, len(req.Operating))
	for k := range req.Operating {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if dst, err = appendName(dst, k); err != nil {
			return dst, err
		}
		dst = appendF64(dst, req.Operating[k])
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// binReader walks one received frame; all read methods return an error
// on truncation instead of panicking, so arbitrary bytes are safe.
type binReader struct {
	data []byte
	pos  int
}

func (r *binReader) remaining() int { return len(r.data) - r.pos }

func (r *binReader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("rate binary: truncated frame at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *binReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("rate binary: truncated frame at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *binReader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("rate binary: truncated frame at offset %d", r.pos)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

// finite is f64 for a request field: a NaN or an infinity is refused,
// since the JSON wire cannot carry one and the estimator is not
// defined on one.
func (r *binReader) finite() (float64, error) {
	at := r.pos
	v, err := r.f64()
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("rate binary: non-finite value %v at offset %d", v, at)
	}
	return v, err
}

func (r *binReader) bytes(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("rate binary: truncated frame at offset %d", r.pos)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *binReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("rate binary: truncated frame at offset %d", r.pos)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// frameReader validates the outer length prefix and magic and returns
// a reader over the frame payload.
func frameReader(data []byte, magic string) (binReader, error) {
	if len(data) < 4 {
		return binReader{}, fmt.Errorf("rate binary: frame shorter than its length prefix")
	}
	n := binary.LittleEndian.Uint32(data)
	if int64(n) != int64(len(data)-4) {
		return binReader{}, fmt.Errorf("rate binary: length prefix %d does not match %d payload bytes", n, len(data)-4)
	}
	r := binReader{data: data[4:]}
	m, err := r.bytes(4)
	if err != nil {
		return binReader{}, err
	}
	if string(m) != magic {
		return binReader{}, fmt.Errorf("rate binary: bad magic %q (want %s)", m, magic)
	}
	return r, nil
}

// readAgentBinary decodes one agent record into dst, interning the ID
// through the scratch.
func (sc *rateScratch) readAgentBinary(r *binReader, dst *AgentState) error {
	n, err := r.u16()
	if err != nil {
		return err
	}
	id, err := r.bytes(int(n))
	if err != nil {
		return err
	}
	dst.ID = sc.intern(id)
	if dst.X, err = r.finite(); err != nil {
		return err
	}
	if dst.Y, err = r.finite(); err != nil {
		return err
	}
	if dst.Heading, err = r.finite(); err != nil {
		return err
	}
	if dst.Speed, err = r.finite(); err != nil {
		return err
	}
	if dst.Accel, err = r.finite(); err != nil {
		return err
	}
	if dst.LatVel, err = r.finite(); err != nil {
		return err
	}
	if dst.Length, err = r.finite(); err != nil {
		return err
	}
	if dst.Width, err = r.finite(); err != nil {
		return err
	}
	lane, err := r.u32()
	if err != nil {
		return err
	}
	dst.Lane = int(int32(lane))
	flags, err := r.u8()
	if err != nil {
		return err
	}
	dst.Static = flags&1 != 0
	return nil
}

// decodeBinaryRequest decodes sc.body as a binary rate request frame
// into the scratch request, allocation-free in the steady state.
func (sc *rateScratch) decodeBinaryRequest() error {
	r, err := frameReader(sc.body, rateReqMagic)
	if err != nil {
		return err
	}
	if sc.req.Time, err = r.finite(); err != nil {
		return err
	}
	if err := sc.readAgentBinary(&r, &sc.req.Ego); err != nil {
		return err
	}
	actors, err := r.u32()
	if err != nil {
		return err
	}
	// Each agent record is at least its fixed tail plus the ID length
	// prefix; reject counts the remaining bytes cannot hold before
	// growing any buffer.
	if int64(actors)*(agentBinarySize+2) > int64(r.remaining()) {
		return fmt.Errorf("rate binary: actor count %d exceeds frame size", actors)
	}
	for i := 0; i < int(actors); i++ {
		if i < cap(sc.req.Actors) {
			sc.req.Actors = sc.req.Actors[:i+1]
		} else {
			sc.req.Actors = append(sc.req.Actors, AgentState{})
		}
		sc.req.Actors[i] = AgentState{}
		if err := sc.readAgentBinary(&r, &sc.req.Actors[i]); err != nil {
			return err
		}
	}
	entries, err := r.u32()
	if err != nil {
		return err
	}
	if int64(entries)*(2+8) > int64(r.remaining()) {
		return fmt.Errorf("rate binary: operating count %d exceeds frame size", entries)
	}
	for i := 0; i < int(entries); i++ {
		n, err := r.u16()
		if err != nil {
			return err
		}
		name, err := r.bytes(int(n))
		if err != nil {
			return err
		}
		v, err := r.finite()
		if err != nil {
			return err
		}
		sc.req.Operating[sc.intern(name)] = v
	}
	return nil
}

// encodeBinaryResponse renders the computed response as a binary
// frame into sc.out. Map entries are emitted sorted by name so
// identical responses produce identical frames; floats are raw IEEE
// bits, so every value encodes, non-finite ones included.
func (sc *rateScratch) encodeBinaryResponse() {
	b := sc.out[:0]
	b = appendU32(b, 0) // patched below
	b = append(b, rateRespMagic...)
	b = appendF64(b, sc.e.Time)
	b = sc.appendFloatMapBinary(b, sc.e.CameraFPR)
	b = appendF64(b, sc.sumFPR)
	b = appendF64(b, sc.maxFPR)
	b = sc.appendFloatMapBinary(b, sc.rates)
	if sc.hasCheck {
		b = append(b, 1)
		if sc.chk.OK {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		// Action strings and camera names come from the fixed rig;
		// they cannot exceed a uint16.
		action := sc.chk.Action.String()
		b = appendU16(b, uint16(len(action)))
		b = append(b, action...)
		b = appendU32(b, uint32(len(sc.chk.Alarms)))
		for _, a := range sc.chk.Alarms {
			b = appendU16(b, uint16(len(a.Camera)))
			b = append(b, a.Camera...)
			b = appendF64(b, a.Required)
			b = appendF64(b, a.Operating)
		}
	} else {
		b = append(b, 0)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	sc.out = b
}

// appendFloatMapBinary appends a sorted uint32-counted name/value
// table, reusing the scratch key slice.
func (sc *rateScratch) appendFloatMapBinary(b []byte, m map[string]float64) []byte {
	sc.keys = sc.keys[:0]
	for k := range m {
		sc.keys = append(sc.keys, k)
	}
	slices.Sort(sc.keys)
	b = appendU32(b, uint32(len(sc.keys)))
	for _, k := range sc.keys {
		b = appendU16(b, uint16(len(k)))
		b = append(b, k...)
		b = appendF64(b, m[k])
	}
	return b
}

// DecodeRateResponseBinary decodes a binary rate response frame (the
// body a successful binary-negotiated POST /v1/rate returns). It is
// the client-side mirror of the server encoder and allocates freely.
func DecodeRateResponseBinary(data []byte) (RateResponse, error) {
	var resp RateResponse
	r, err := frameReader(data, rateRespMagic)
	if err != nil {
		return resp, err
	}
	if resp.Time, err = r.f64(); err != nil {
		return resp, err
	}
	if resp.CameraFPR, err = readFloatMapBinary(&r); err != nil {
		return resp, err
	}
	if resp.SumFPR, err = r.f64(); err != nil {
		return resp, err
	}
	if resp.MaxFPR, err = r.f64(); err != nil {
		return resp, err
	}
	if resp.Rates, err = readFloatMapBinary(&r); err != nil {
		return resp, err
	}
	hasCheck, err := r.u8()
	if err != nil {
		return resp, err
	}
	if hasCheck == 0 {
		if r.remaining() != 0 {
			return resp, fmt.Errorf("rate binary: %d trailing bytes", r.remaining())
		}
		return resp, nil
	}
	chk := &RateCheck{}
	okByte, err := r.u8()
	if err != nil {
		return resp, err
	}
	chk.OK = okByte != 0
	n, err := r.u16()
	if err != nil {
		return resp, err
	}
	action, err := r.bytes(int(n))
	if err != nil {
		return resp, err
	}
	chk.Action = string(action)
	alarms, err := r.u32()
	if err != nil {
		return resp, err
	}
	if int64(alarms)*(2+16) > int64(r.remaining()) {
		return resp, fmt.Errorf("rate binary: alarm count %d exceeds frame size", alarms)
	}
	for i := 0; i < int(alarms); i++ {
		var a RateAlarm
		n, err := r.u16()
		if err != nil {
			return resp, err
		}
		name, err := r.bytes(int(n))
		if err != nil {
			return resp, err
		}
		a.Camera = string(name)
		if a.Required, err = r.f64(); err != nil {
			return resp, err
		}
		if a.Operating, err = r.f64(); err != nil {
			return resp, err
		}
		chk.Alarms = append(chk.Alarms, a)
	}
	resp.Check = chk
	if r.remaining() != 0 {
		return resp, fmt.Errorf("rate binary: %d trailing bytes", r.remaining())
	}
	return resp, nil
}

// readFloatMapBinary reads a uint32-counted name/value table.
func readFloatMapBinary(r *binReader) (map[string]float64, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n)*(2+8) > int64(r.remaining()) {
		return nil, fmt.Errorf("rate binary: entry count %d exceeds frame size", n)
	}
	m := make(map[string]float64, n)
	for i := 0; i < int(n); i++ {
		k, err := r.u16()
		if err != nil {
			return nil, err
		}
		name, err := r.bytes(int(k))
		if err != nil {
			return nil, err
		}
		v, err := r.f64()
		if err != nil {
			return nil, err
		}
		m[string(name)] = v
	}
	return m, nil
}
