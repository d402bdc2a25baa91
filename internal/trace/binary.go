package trace

// ZYT1 is the store's binary columnar trace format. The gzip-JSONL
// encoding archived well but decoded badly: reconstructing one ~1.4 MB
// trace costs more CPU than re-running this repo's kinematic simulator,
// which made the disk tier slower than simulating (see
// docs/benchmarks.md). ZYT1 turns the decode into a linear varint scan:
//
//	"ZYT1"                                  4-byte magic
//	frame*                                  type byte, uvarint length, payload
//
// Frames, in required order: one header frame (0x01, payload = the same
// JSON header object as the JSONL first line, so Meta/Collision keep
// encoding/json's exact semantics), zero or more row-block frames
// (0x02), one end frame (0xFF, payload = uvarint total row count, a
// truncation check). Trailing bytes after the end frame are rejected.
//
// A row block holds up to zytBlockRows rows column-by-column — all
// times, then every ego field, then the planner commands, then the
// flattened actor columns, then the rate maps. Blocks are
// self-contained (string tables and delta chains reset per block), so a
// reader needs one frame in memory at a time and a corrupted block
// cannot poison its neighbors. Within a block:
//
//   - float64 columns encode as zigzag varints of the IEEE-754 bit
//     pattern's delta against the previous value in the column. Monotone
//     columns (time) and near-constant columns (dimensions, headings on
//     straight roads) collapse to 1–2 bytes per row.
//   - integer columns (lane) delta the same way; booleans bit-pack.
//   - agent IDs and camera names reference a block-local string table;
//     the decoder interns them file-wide so a 100k-row trace holds one
//     copy of "ego".
//   - per-row variable shapes (actor count, rate-map size) distinguish
//     nil from empty, preserving encoding/json's round-trip behavior
//     exactly: the decoder's output is deep-equal to what the JSONL
//     path produces for the same trace.
//
// The decoder allocates per block (rows, one actor backing array) and
// per unique string — amortized, effectively nothing per row — and
// bounds every count it reads against the bytes that remain, so
// truncated, bit-flipped, or adversarial inputs fail cleanly without
// large allocations (FuzzTraceDecode pins this).
//
// The encoding is canonical: a trace has exactly one ZYT1 encoding, and
// re-encoding a decoded trace reproduces the bytes it was decoded from.
// The store addresses objects by the SHA-256 of these bytes, so a change
// to TestZYTGolden's bytes is a store-format change and needs a new
// hash-scheme tag (store.HashZYT).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/world"
)

// ZYTMagic is the 4-byte prefix of every binary trace artifact.
const ZYTMagic = "ZYT1"

const (
	zytFrameHeader byte = 0x01
	zytFrameRows   byte = 0x02
	zytFrameEnd    byte = 0xFF

	// zytMaxFrame bounds one frame's payload: a decoder never buffers
	// more than this, whatever a corrupted length claims.
	zytMaxFrame = 64 << 20
	// zytBlockRows is the writer's rows-per-block; the reader accepts
	// any block within the frame bound.
	zytBlockRows = 4096
)

// WriteZYT serializes the trace in the ZYT1 binary columnar format.
// The encoding covers exactly the fields the JSONL encoding covers;
// ReadZYT(WriteZYT(tr)) is deep-equal to Read(Write(tr)).
func (tr *Trace) WriteZYT(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(ZYTMagic); err != nil {
		return fmt.Errorf("trace: write magic: %w", err)
	}
	hdr, err := json.Marshal(header{Meta: tr.Meta, Collision: tr.Collision})
	if err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	writeZYTFrame(bw, zytFrameHeader, hdr)
	var enc zytEncoder
	for start := 0; start < len(tr.Rows); start += zytBlockRows {
		end := min(start+zytBlockRows, len(tr.Rows))
		writeZYTFrame(bw, zytFrameRows, enc.encodeBlock(tr.Rows[start:end]))
	}
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(len(tr.Rows)))
	writeZYTFrame(bw, zytFrameEnd, cnt[:n])
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

func writeZYTFrame(bw *bufio.Writer, typ byte, payload []byte) {
	var lenBuf [binary.MaxVarintLen64]byte
	bw.WriteByte(typ)
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	bw.Write(lenBuf[:n])
	bw.Write(payload)
}

// zytEncoder holds the reusable scratch of a block encoder.
type zytEncoder struct {
	buf      []byte
	strings  map[string]uint64
	order    []string
	flat     []*world.Agent
	camIdx   map[string]uint64
	camOrder []string
	camLast  []uint64
	keyBuf   []string
}

func (e *zytEncoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *zytEncoder) svarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

func (e *zytEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// stringID interns s in the block-local table.
func (e *zytEncoder) stringID(s string) uint64 {
	if id, ok := e.strings[s]; ok {
		return id
	}
	id := uint64(len(e.order))
	e.strings[s] = id
	e.order = append(e.order, s)
	return id
}

// encodeBlock renders rows into the encoder's reused buffer. The
// returned slice is valid until the next call.
func (e *zytEncoder) encodeBlock(rows []Row) []byte {
	e.buf = e.buf[:0]
	if e.strings == nil {
		e.strings = make(map[string]uint64)
		e.camIdx = make(map[string]uint64)
	}
	clear(e.strings)
	e.order = e.order[:0]
	clear(e.camIdx)
	e.camOrder = e.camOrder[:0]

	// Pre-walk: build the string table (ego + actor IDs, in column
	// order) and the camera table (sorted per row, first-appearance
	// order across rows) so both precede the columns that reference
	// them.
	e.flat = e.flat[:0]
	for i := range rows {
		e.stringID(rows[i].Ego.ID)
	}
	for i := range rows {
		for a := range rows[i].Actors {
			e.stringID(rows[i].Actors[a].ID)
			e.flat = append(e.flat, &rows[i].Actors[a])
		}
	}
	for i := range rows {
		for _, cam := range e.sortedRateKeys(rows[i].Rates) {
			if _, ok := e.camIdx[cam]; !ok {
				e.camIdx[cam] = uint64(len(e.camOrder))
				e.camOrder = append(e.camOrder, cam)
			}
		}
	}

	e.uvarint(uint64(len(rows)))
	e.uvarint(uint64(len(e.order)))
	for _, s := range e.order {
		e.str(s)
	}

	// Time column: monotone, so the bit-pattern deltas are small.
	var prev uint64
	for i := range rows {
		bits := math.Float64bits(rows[i].Time)
		e.svarint(int64(bits - prev))
		prev = bits
	}

	e.encodeAgents(len(rows), func(i int) *world.Agent { return &rows[i].Ego })

	prev = 0
	for i := range rows {
		bits := math.Float64bits(rows[i].CmdAccel)
		e.svarint(int64(bits - prev))
		prev = bits
	}
	e.bitpack(len(rows), func(i int) bool { return rows[i].AEB })

	// Actor shape column: 0 = nil slice, n+1 = n actors. The nil/empty
	// distinction mirrors encoding/json's (Actors has no omitempty).
	for i := range rows {
		if rows[i].Actors == nil {
			e.uvarint(0)
		} else {
			e.uvarint(uint64(len(rows[i].Actors)) + 1)
		}
	}
	e.encodeAgents(len(e.flat), func(i int) *world.Agent { return e.flat[i] })

	// Rate maps: a block-local camera table, then per row the sorted
	// (camera, rate) pairs, each rate delta-chained against that
	// camera's previous value in the block. Empty and nil maps both
	// encode as 0: the JSONL path cannot distinguish them either
	// (omitempty drops both), so decoders produce nil for each.
	e.uvarint(uint64(len(e.camOrder)))
	for _, cam := range e.camOrder {
		e.str(cam)
	}
	if cap(e.camLast) < len(e.camOrder) {
		e.camLast = make([]uint64, len(e.camOrder))
	}
	e.camLast = e.camLast[:len(e.camOrder)]
	clear(e.camLast)
	for i := range rows {
		keys := e.sortedRateKeys(rows[i].Rates)
		e.uvarint(uint64(len(keys)))
		for _, cam := range keys {
			idx := e.camIdx[cam]
			bits := math.Float64bits(rows[i].Rates[cam])
			e.uvarint(idx)
			e.svarint(int64(bits - e.camLast[idx]))
			e.camLast[idx] = bits
		}
	}
	return e.buf
}

// sortedRateKeys returns the map's keys sorted, reusing scratch; the
// result is valid until the next call.
func (e *zytEncoder) sortedRateKeys(m map[string]float64) []string {
	e.keyBuf = e.keyBuf[:0]
	for k := range m {
		e.keyBuf = append(e.keyBuf, k)
	}
	sort.Strings(e.keyBuf)
	return e.keyBuf
}

// encodeAgents writes the agent columns for n agents: IDs (string
// table references), eight float64 delta columns, the lane delta
// column, and the static bit column. Every exported world.Agent field
// is covered; TestZYTAgentFieldsPinned fails compilation of drift.
func (e *zytEncoder) encodeAgents(n int, at func(int) *world.Agent) {
	for i := 0; i < n; i++ {
		e.uvarint(e.strings[at(i).ID])
	}
	cols := [...]func(*world.Agent) float64{
		func(a *world.Agent) float64 { return a.Pose.Pos.X },
		func(a *world.Agent) float64 { return a.Pose.Pos.Y },
		func(a *world.Agent) float64 { return a.Pose.Heading },
		func(a *world.Agent) float64 { return a.Speed },
		func(a *world.Agent) float64 { return a.Accel },
		func(a *world.Agent) float64 { return a.LatVel },
		func(a *world.Agent) float64 { return a.Length },
		func(a *world.Agent) float64 { return a.Width },
	}
	for _, col := range cols {
		var prev uint64
		for i := 0; i < n; i++ {
			bits := math.Float64bits(col(at(i)))
			e.svarint(int64(bits - prev))
			prev = bits
		}
	}
	var prevLane int64
	for i := 0; i < n; i++ {
		lane := int64(at(i).Lane)
		e.svarint(lane - prevLane)
		prevLane = lane
	}
	e.bitpack(n, func(i int) bool { return at(i).Static })
}

// bitpack appends n booleans, 8 per byte, LSB first.
func (e *zytEncoder) bitpack(n int, at func(int) bool) {
	for i := 0; i < n; i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < n; j++ {
			if at(i + j) {
				b |= 1 << j
			}
		}
		e.buf = append(e.buf, b)
	}
}

// zytCursor is a bounds-checked reader over one frame payload. Every
// accessor short-circuits once an error is recorded, so decode loops
// need only check err at section boundaries.
type zytCursor struct {
	p   []byte
	off int
	err error
}

func (c *zytCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: zyt offset %d: %s", c.off, fmt.Sprintf(format, args...))
	}
}

func (c *zytCursor) remaining() int { return len(c.p) - c.off }

func (c *zytCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *zytCursor) svarint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.p[c.off:])
	if n <= 0 {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return v
}

// count reads a uvarint bounded by max and by the remaining payload
// (no element costs less than one byte, so a count beyond the
// remaining bytes is corrupt — this is what keeps adversarial counts
// from driving huge allocations).
func (c *zytCursor) count(max int) int {
	v := c.uvarint()
	if c.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(c.remaining())+1 {
		c.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

func (c *zytCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.remaining() {
		c.fail("take %d beyond remaining %d", n, c.remaining())
		return nil
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b
}

// zytDecoder carries file-scoped decode state: the string intern table
// and reusable per-block scratch.
type zytDecoder struct {
	intern   map[string]string
	frameBuf []byte
	table    []string
	counts   []int
	camTable []string
	camLast  []uint64
}

func (d *zytDecoder) internBytes(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// ReadZYT parses a ZYT1 binary trace. It streams frame by frame —
// memory is bounded by the largest single frame plus the decoded rows
// — and rejects truncation, trailing garbage, frame-order violations,
// and any count that exceeds the bytes backing it.
func ReadZYT(r io.Reader) (*Trace, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: zyt magic: %w", err)
	}
	if string(magic[:]) != ZYTMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	d := zytDecoder{intern: make(map[string]string)}
	var tr *Trace
	sawEnd := false
	for !sawEnd {
		typ, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: zyt frame: %w", err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: zyt frame length: %w", err)
		}
		if n > zytMaxFrame {
			return nil, fmt.Errorf("trace: zyt frame of %d bytes exceeds the %d limit", n, zytMaxFrame)
		}
		if cap(d.frameBuf) < int(n) {
			d.frameBuf = make([]byte, n)
		}
		payload := d.frameBuf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("trace: zyt frame payload: %w", err)
		}
		switch typ {
		case zytFrameHeader:
			if tr != nil {
				return nil, fmt.Errorf("trace: zyt: duplicate header frame")
			}
			var h header
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("trace: zyt header: %w", err)
			}
			tr = &Trace{Meta: h.Meta, Collision: h.Collision}
		case zytFrameRows:
			if tr == nil {
				return nil, fmt.Errorf("trace: zyt: row block before header")
			}
			if err := d.decodeBlock(payload, tr); err != nil {
				return nil, err
			}
		case zytFrameEnd:
			if tr == nil {
				return nil, fmt.Errorf("trace: zyt: end frame before header")
			}
			c := zytCursor{p: payload}
			total := c.uvarint()
			if c.err != nil || c.remaining() != 0 {
				return nil, fmt.Errorf("trace: zyt: malformed end frame")
			}
			if total != uint64(len(tr.Rows)) {
				return nil, fmt.Errorf("trace: zyt: end frame claims %d rows, decoded %d", total, len(tr.Rows))
			}
			sawEnd = true
		default:
			return nil, fmt.Errorf("trace: zyt: unknown frame type 0x%02x", typ)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: zyt: trailing data after end frame")
	}
	return tr, nil
}

func (d *zytDecoder) decodeBlock(p []byte, tr *Trace) error {
	c := zytCursor{p: p}
	n := c.count(zytBlockRows)
	if c.err == nil && n == 0 {
		c.fail("empty row block")
	}

	nStr := c.count(c.remaining())
	d.table = d.table[:0]
	for i := 0; i < nStr && c.err == nil; i++ {
		l := c.count(c.remaining())
		d.table = append(d.table, d.internBytes(c.take(l)))
	}
	if c.err != nil {
		return c.err
	}

	base := len(tr.Rows)
	tr.Rows = append(tr.Rows, make([]Row, n)...)
	rows := tr.Rows[base:]

	var prev uint64
	for i := range rows {
		prev += uint64(c.svarint())
		rows[i].Time = math.Float64frombits(prev)
	}
	if err := d.decodeAgents(&c, n, func(i int) *world.Agent { return &rows[i].Ego }); err != nil {
		return err
	}
	prev = 0
	for i := range rows {
		prev += uint64(c.svarint())
		rows[i].CmdAccel = math.Float64frombits(prev)
	}
	d.unbitpack(&c, n, func(i int, v bool) { rows[i].AEB = v })
	if c.err != nil {
		return c.err
	}

	// Actor shapes, then one backing array for the block's actors so
	// per-row slices carve from a single allocation.
	d.counts = d.counts[:0]
	total := 0
	for i := 0; i < n; i++ {
		shape := c.count(c.remaining() + 1)
		d.counts = append(d.counts, shape)
		if shape > 0 {
			total += shape - 1
		}
	}
	if c.err != nil {
		return c.err
	}
	// Every agent costs at least 10 payload bytes (one varint per
	// column plus the static bit), so a shape column claiming more is
	// corrupt — checked before the backing allocation, which is ~10x
	// the wire size per agent.
	if total > c.remaining()/10+1 {
		c.fail("actor total %d exceeds remaining payload", total)
		return c.err
	}
	actors := make([]world.Agent, total)
	if err := d.decodeAgents(&c, total, func(i int) *world.Agent { return &actors[i] }); err != nil {
		return err
	}
	off := 0
	for i, shape := range d.counts {
		if shape == 0 {
			continue // nil slice
		}
		k := shape - 1
		rows[i].Actors = actors[off : off+k : off+k]
		off += k
	}

	nCams := c.count(c.remaining())
	d.camTable = d.camTable[:0]
	for i := 0; i < nCams && c.err == nil; i++ {
		l := c.count(c.remaining())
		d.camTable = append(d.camTable, d.internBytes(c.take(l)))
	}
	if cap(d.camLast) < len(d.camTable) {
		d.camLast = make([]uint64, len(d.camTable))
	}
	d.camLast = d.camLast[:len(d.camTable)]
	clear(d.camLast)
	for i := 0; i < n && c.err == nil; i++ {
		cnt := c.count(len(d.camTable))
		if cnt == 0 {
			continue
		}
		m := make(map[string]float64, cnt)
		for j := 0; j < cnt && c.err == nil; j++ {
			idx := c.uvarint()
			if c.err == nil && idx >= uint64(len(d.camTable)) {
				c.fail("camera index %d out of table", idx)
				break
			}
			delta := c.svarint()
			if c.err != nil {
				break
			}
			d.camLast[idx] += uint64(delta)
			m[d.camTable[idx]] = math.Float64frombits(d.camLast[idx])
		}
		rows[i].Rates = m
	}
	if c.err != nil {
		return c.err
	}
	if c.remaining() != 0 {
		c.fail("trailing bytes in row block")
	}
	return c.err
}

func (d *zytDecoder) decodeAgents(c *zytCursor, n int, at func(int) *world.Agent) error {
	for i := 0; i < n; i++ {
		idx := c.uvarint()
		if c.err != nil {
			return c.err
		}
		if idx >= uint64(len(d.table)) {
			c.fail("string index %d out of table", idx)
			return c.err
		}
		at(i).ID = d.table[idx]
	}
	cols := [...]func(*world.Agent, float64){
		func(a *world.Agent, v float64) { a.Pose.Pos.X = v },
		func(a *world.Agent, v float64) { a.Pose.Pos.Y = v },
		func(a *world.Agent, v float64) { a.Pose.Heading = v },
		func(a *world.Agent, v float64) { a.Speed = v },
		func(a *world.Agent, v float64) { a.Accel = v },
		func(a *world.Agent, v float64) { a.LatVel = v },
		func(a *world.Agent, v float64) { a.Length = v },
		func(a *world.Agent, v float64) { a.Width = v },
	}
	for _, col := range cols {
		var prev uint64
		for i := 0; i < n; i++ {
			prev += uint64(c.svarint())
			col(at(i), math.Float64frombits(prev))
		}
		if c.err != nil {
			return c.err
		}
	}
	var prevLane int64
	for i := 0; i < n; i++ {
		prevLane += c.svarint()
		at(i).Lane = int(prevLane)
	}
	d.unbitpack(c, n, func(i int, v bool) { at(i).Static = v })
	return c.err
}

func (d *zytDecoder) unbitpack(c *zytCursor, n int, set func(int, bool)) {
	bytes := c.take((n + 7) / 8)
	if c.err != nil {
		return
	}
	for i := 0; i < n; i++ {
		set(i, bytes[i/8]&(1<<(i%8)) != 0)
	}
}
