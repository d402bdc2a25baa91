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
// corrupted block cannot poison its neighbors. Within a block:
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
// Decoding works on the whole object in memory. DecodeZYT walks the
// frames of one []byte, each payload a subslice of it; ReadZYT reads a
// stream frame by frame into one buffer, refusing an oversized frame
// before buffering it, and hands the buffer to DecodeZYT (the store
// reads an object with one read and calls DecodeZYT itself). A decode
// allocates the rows once per trace (a scan of the block heads sizes
// them), one actor backing array per block and one copy of each unique
// string; it keeps no state between calls, and nothing but the trace
// survives it (TestReadZYTAllocBudget pins this). DecodeZYTInto takes
// the rows, actors and tables from a caller's RowBuffer instead, so a
// worker decoding a stream of objects allocates only when one outgrows
// the storage its predecessors left (TestDecodeZYTIntoReusedBuffer
// pins equality with DecodeZYT). Column loops call no
// closures, and the varint reader decodes one-byte values inline and
// longer ones from one 8-byte load. Every count read is bounded
// against the bytes that remain, so truncated, bit-flipped, or
// adversarial inputs fail cleanly without large allocations
// (FuzzTraceDecode pins this). The encoder mirrors the decoder: one
// buffer per call, closure-free column loops, one Write per frame.
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
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/world"
)

// ZYTMagic is the 4-byte prefix of every binary trace artifact.
const ZYTMagic = "ZYT1"

const (
	zytFrameHeader byte = 0x01
	zytFrameRows   byte = 0x02
	zytFrameEnd    byte = 0xFF

	// zytMaxFrame bounds one frame's payload: ReadZYT refuses a longer
	// claim before buffering it, whatever a corrupted length says.
	zytMaxFrame = 64 << 20
	// zytBlockRows is the writer's rows-per-block; the reader accepts
	// any block within the frame bound.
	zytBlockRows = 4096
	// zytMinRowBytes is the fewest payload bytes a row can take: one
	// varint each for its time, ego ID, eight ego floats, ego lane,
	// command, actor shape and rate count. A block claiming more rows
	// than its payload holds is corrupt, which keeps the row
	// allocation within a small multiple of the input.
	zytMinRowBytes = 14

	// zytAgentFloats is the number of float64 columns per agent.
	zytAgentFloats = 8
	// zytFrameHead bounds a frame head: type byte, uvarint length.
	zytFrameHead = 1 + binary.MaxVarintLen64
	// zytReserve is the room the encoder keeps in front of a payload
	// for the frame head and, on the first frame, the magic.
	zytReserve = len(ZYTMagic) + zytFrameHead
	// zytAgentBytes sizes the encoder's first block buffer per agent;
	// Table-1 traces take about 42 bytes per agent.
	zytAgentBytes = 48
)

// agentFloat returns float64 column f of a, in wire order: x, y,
// heading, speed, accel, lateral velocity, length, width.
func agentFloat(a *world.Agent, f int) *float64 {
	switch f {
	case 0:
		return &a.Pose.Pos.X
	case 1:
		return &a.Pose.Pos.Y
	case 2:
		return &a.Pose.Heading
	case 3:
		return &a.Speed
	case 4:
		return &a.Accel
	case 5:
		return &a.LatVel
	case 6:
		return &a.Length
	default:
		return &a.Width
	}
}

// WriteZYT serializes the trace in the ZYT1 binary columnar format.
// The encoding covers exactly the fields the JSONL encoding covers;
// ReadZYT(WriteZYT(tr)) is deep-equal to Read(Write(tr)). Each frame
// reaches w in one Write.
func (tr *Trace) WriteZYT(w io.Writer) error {
	hdr, err := json.Marshal(header{Meta: tr.Meta, Collision: tr.Collision})
	if err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	e := zytEncoders.Get().(*zytEncoder)
	defer zytEncoders.Put(e)
	e.begin(len(hdr))
	e.buf = append(e.buf, hdr...)
	if err := e.flush(w, zytFrameHeader, ZYTMagic); err != nil {
		return err
	}
	for start := 0; start < len(tr.Rows); start += zytBlockRows {
		e.encodeBlock(tr.Rows[start:min(start+zytBlockRows, len(tr.Rows))])
		if err := e.flush(w, zytFrameRows, ""); err != nil {
			return err
		}
	}
	e.begin(binary.MaxVarintLen64)
	e.uvarint(uint64(len(tr.Rows)))
	return e.flush(w, zytFrameEnd, "")
}

// zytEncoders recycles encoders across WriteZYT calls, so a call
// reuses the frame buffer and block tables an earlier one grew instead
// of allocating a row block's worth of bytes per trace.
var zytEncoders = sync.Pool{New: func() any { return new(zytEncoder) }}

// zytEncoder holds one WriteZYT call's frame buffer and block tables;
// every block resets the tables, so a recycled encoder writes the
// same bytes as a new one.
type zytEncoder struct {
	buf      []byte
	strings  map[string]uint64
	order    []string
	camIdx   map[string]uint64
	camOrder []string
	camLast  []uint64
	keyBuf   []string
	bits     byte  // booleans packed so far, LSB first
	nbits    uint8 // how many
}

// begin starts a frame with room for size payload bytes, leaving
// zytReserve bytes in front for flush to fill in.
func (e *zytEncoder) begin(size int) {
	if cap(e.buf) < zytReserve+size {
		e.buf = make([]byte, zytReserve, zytReserve+size)
	}
	e.buf = e.buf[:zytReserve]
}

// flush writes the frame built since begin, preceded by prefix and
// its head, in one Write.
func (e *zytEncoder) flush(w io.Writer, typ byte, prefix string) error {
	var head [zytFrameHead]byte
	head[0] = typ
	n := 1 + binary.PutUvarint(head[1:], uint64(len(e.buf)-zytReserve))
	start := zytReserve - n - len(prefix)
	copy(e.buf[start:], prefix)
	copy(e.buf[start+len(prefix):], head[:n])
	if _, err := w.Write(e.buf[start:]); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

func (e *zytEncoder) uvarint(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// svarint appends v zigzag-encoded, as binary.AppendVarint does.
func (e *zytEncoder) svarint(v int64) {
	e.uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// float appends the next value of a delta-chained float64 column
// whose previous bit pattern is prev, and returns v's bit pattern.
func (e *zytEncoder) float(prev uint64, v float64) uint64 {
	b := math.Float64bits(v)
	e.svarint(int64(b - prev))
	return b
}

func (e *zytEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// bit packs one boolean, 8 per byte, LSB first; endBits flushes a
// partial byte at the end of a column.
func (e *zytEncoder) bit(v bool) {
	if v {
		e.bits |= 1 << e.nbits
	}
	if e.nbits++; e.nbits == 8 {
		e.endBits()
	}
}

func (e *zytEncoder) endBits() {
	if e.nbits > 0 {
		e.buf = append(e.buf, e.bits)
		e.bits, e.nbits = 0, 0
	}
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

// encodeBlock renders rows as one row-block frame payload, starting
// the frame.
func (e *zytEncoder) encodeBlock(rows []Row) {
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
	for i := range rows {
		e.stringID(rows[i].Ego.ID)
	}
	actors := 0
	for i := range rows {
		for a := range rows[i].Actors {
			e.stringID(rows[i].Actors[a].ID)
		}
		actors += len(rows[i].Actors)
	}
	for i := range rows {
		for _, cam := range e.sortedRateKeys(rows[i].Rates) {
			if _, ok := e.camIdx[cam]; !ok {
				e.camIdx[cam] = uint64(len(e.camOrder))
				e.camOrder = append(e.camOrder, cam)
			}
		}
	}
	e.begin(zytAgentBytes * (len(rows) + actors))

	e.uvarint(uint64(len(rows)))
	e.uvarint(uint64(len(e.order)))
	for _, s := range e.order {
		e.str(s)
	}

	// Time column: monotone, so the bit-pattern deltas are small.
	var prev uint64
	for i := range rows {
		prev = e.float(prev, rows[i].Time)
	}

	// Ego columns: IDs (string table references), eight float64 delta
	// columns, the lane delta column, and the static bit column. Every
	// exported world.Agent field is covered; TestZYTAgentFieldsPinned
	// fails on drift. The actor columns below repeat the layout.
	for i := range rows {
		e.uvarint(e.strings[rows[i].Ego.ID])
	}
	for f := range zytAgentFloats {
		prev = 0
		for i := range rows {
			prev = e.float(prev, *agentFloat(&rows[i].Ego, f))
		}
	}
	var lane int64
	for i := range rows {
		e.svarint(int64(rows[i].Ego.Lane) - lane)
		lane = int64(rows[i].Ego.Lane)
	}
	for i := range rows {
		e.bit(rows[i].Ego.Static)
	}
	e.endBits()

	prev = 0
	for i := range rows {
		prev = e.float(prev, rows[i].CmdAccel)
	}
	for i := range rows {
		e.bit(rows[i].AEB)
	}
	e.endBits()

	// Actor shape column: 0 = nil slice, n+1 = n actors. The nil/empty
	// distinction mirrors encoding/json's (Actors has no omitempty).
	for i := range rows {
		if rows[i].Actors == nil {
			e.uvarint(0)
		} else {
			e.uvarint(uint64(len(rows[i].Actors)) + 1)
		}
	}
	// Actor columns, over the block's actors in row order.
	for i := range rows {
		for a := range rows[i].Actors {
			e.uvarint(e.strings[rows[i].Actors[a].ID])
		}
	}
	for f := range zytAgentFloats {
		prev = 0
		for i := range rows {
			as := rows[i].Actors
			for a := range as {
				prev = e.float(prev, *agentFloat(&as[a], f))
			}
		}
	}
	lane = 0
	for i := range rows {
		as := rows[i].Actors
		for a := range as {
			e.svarint(int64(as[a].Lane) - lane)
			lane = int64(as[a].Lane)
		}
	}
	for i := range rows {
		as := rows[i].Actors
		for a := range as {
			e.bit(as[a].Static)
		}
	}
	e.endBits()

	// Rate maps: a block-local camera table, then per row the sorted
	// (camera, rate) pairs, each rate delta-chained against that
	// camera's previous value in the block. Empty and nil maps both
	// encode as 0: the JSONL path cannot distinguish them either
	// (omitempty drops both), so decoders produce nil for each.
	e.uvarint(uint64(len(e.camOrder)))
	for _, cam := range e.camOrder {
		e.str(cam)
	}
	e.camLast = append(e.camLast[:0], make([]uint64, len(e.camOrder))...)
	for i := range rows {
		keys := e.sortedRateKeys(rows[i].Rates)
		e.uvarint(uint64(len(keys)))
		for _, cam := range keys {
			idx := e.camIdx[cam]
			e.uvarint(idx)
			e.camLast[idx] = e.float(e.camLast[idx], rows[i].Rates[cam])
		}
	}
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

// zytCursor is a bounds-checked reader over one frame payload. The
// first failure records an error and empties what remains, so every
// later read fails too and decode loops need only check err at
// section boundaries.
type zytCursor struct {
	p   []byte
	off int
	err error
}

func (c *zytCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: zyt offset %d: %s", c.off, fmt.Sprintf(format, args...))
		c.p = c.p[:c.off]
	}
}

func (c *zytCursor) remaining() int { return len(c.p) - c.off }

// uvarint reads one uvarint. Most values fit one byte. The rest are
// float bit-pattern deltas of up to ten bytes: one little-endian
// 8-byte load covers their first eight, whose 7-bit groups gather
// without a loop. The payload's last bytes and overflowing values take
// binary.Uvarint, which reports truncation and overflow.
func (c *zytCursor) uvarint() uint64 {
	p, off := c.p, c.off
	if off < len(p) && p[off] < 0x80 {
		c.off = off + 1
		return uint64(p[off])
	}
	if off+binary.MaxVarintLen64 <= len(p) {
		w := binary.LittleEndian.Uint64(p[off:])
		// n counts the bytes through the first stop byte; 9 means none
		// of the eight loaded bytes stops.
		n := bits.TrailingZeros64(^w&0x8080808080808080)/8 + 1
		if n <= 8 {
			w &= 1<<(8*n) - 1
		}
		v := w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14) | w>>3&(0x7f<<21) |
			w>>4&(0x7f<<28) | w>>5&(0x7f<<35) | w>>6&(0x7f<<42) | w>>7&(0x7f<<49)
		switch {
		case n <= 8:
		case p[off+8] < 0x80:
			v |= uint64(p[off+8]) << 56
		case p[off+9] <= 1:
			v |= uint64(p[off+8]&0x7f)<<56 | uint64(p[off+9])<<63
			n = 10
		default:
			n = 0 // overflows 64 bits; binary.Uvarint reports it
		}
		if n > 0 {
			c.off = off + n
			return v
		}
	}
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off = off + n
	return v
}

// svarint reads one zigzag varint, as binary.Varint does.
func (c *zytCursor) svarint() int64 { return int64(unzigzag(c.uvarint())) }

// delta reads the next bit pattern of a delta-chained float64 column
// whose previous pattern is prev.
func (c *zytCursor) delta(prev uint64) uint64 {
	return prev + unzigzag(c.uvarint())
}

// unzigzag undoes the zigzag mapping of a varint, as binary.Varint does.
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

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

// blockRows reads a row block's row count: at least one, at most
// zytBlockRows, and no more than the rest of the payload can hold.
func (c *zytCursor) blockRows() int {
	n := c.count(zytBlockRows)
	if c.err == nil && n == 0 {
		c.fail("empty row block")
	}
	if c.err == nil && n > c.remaining()/zytMinRowBytes {
		c.fail("%d rows exceed the block's %d bytes", n, c.remaining())
	}
	return n
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

// bit reports boolean i of a packed column.
func bit(packed []byte, i int) bool { return packed[i/8]&(1<<(i%8)) != 0 }

// zytNextFrame splits the frame at the head of b into its type and
// payload, a subslice of b, and returns the bytes after it.
func zytNextFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, nil, fmt.Errorf("trace: zyt frame: %w", io.EOF)
	}
	typ = b[0]
	n, k := binary.Uvarint(b[1:])
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("trace: zyt frame length: bad uvarint")
	}
	if n > zytMaxFrame {
		return 0, nil, nil, fmt.Errorf("trace: zyt frame of %d bytes exceeds the %d limit", n, zytMaxFrame)
	}
	b = b[1+k:]
	if n > uint64(len(b)) {
		return 0, nil, nil, fmt.Errorf("trace: zyt frame payload: %w", io.ErrUnexpectedEOF)
	}
	return typ, b[:n], b[n:], nil
}

// zytCountRows sums the row counts of the row blocks before the first
// end frame, stopping where decoding would stop: at a malformed frame,
// a bad block head, or an unknown frame type.
func zytCountRows(b []byte) int {
	total := 0
	for {
		typ, payload, rest, err := zytNextFrame(b)
		if err != nil || (typ != zytFrameHeader && typ != zytFrameRows) {
			return total
		}
		if typ == zytFrameRows {
			c := zytCursor{p: payload}
			n := c.blockRows()
			if c.err != nil {
				return total
			}
			total += n
		}
		b = rest
	}
}

// ReadZYT parses a ZYT1 binary trace from a stream. It reads frame by
// frame into one buffer, refusing an oversized frame before buffering
// it, stops at the end frame, checks one byte past it for trailing
// data, and decodes the buffer with DecodeZYT. An r that reports Len
// (bytes.Reader, bytes.Buffer, strings.Reader) sizes the buffer once.
func ReadZYT(r io.Reader) (*Trace, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		bufr := bufio.NewReader(r)
		r, br = bufr, bufr
	}
	var b []byte
	if l, ok := r.(interface{ Len() int }); ok {
		b = make([]byte, 0, l.Len())
	}
	b, err := appendFull(b, r, len(ZYTMagic))
	if err != nil {
		return nil, fmt.Errorf("trace: zyt magic: %w", err)
	}
	if string(b) != ZYTMagic {
		return nil, fmt.Errorf("trace: bad magic %q", b)
	}
	for {
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
		b = binary.AppendUvarint(append(b, typ), n)
		if b, err = appendFull(b, r, int(n)); err != nil {
			return nil, fmt.Errorf("trace: zyt frame payload: %w", err)
		}
		if typ == zytFrameEnd {
			break
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: zyt: trailing data after end frame")
	}
	return DecodeZYT(b)
}

// appendFull reads exactly n more bytes from r onto b.
func appendFull(b []byte, r io.Reader, n int) ([]byte, error) {
	b = slices.Grow(b, n)
	if _, err := io.ReadFull(r, b[len(b):len(b)+n]); err != nil {
		return nil, err
	}
	return b[:len(b)+n], nil
}

// DecodeZYT parses a ZYT1 binary trace held in memory. It rejects
// truncation, trailing data, frame-order violations, and any count
// that exceeds the bytes backing it. The trace shares no memory with
// b, and no decoder state outlives the call.
func DecodeZYT(b []byte) (*Trace, error) { return DecodeZYTInto(b, nil) }

// DecodeZYTInto is DecodeZYT decoding into buf's storage: the rows,
// every block's actors and the decoder's tables come from buf, which
// grows when the trace needs more. The trace aliases buf and is valid
// until the next decode or run into it (see RowBuffer); b may be
// buf.Bytes. A nil buf allocates, as DecodeZYT does. A failed decode
// leaves buf ready for the next one.
func DecodeZYTInto(b []byte, buf *RowBuffer) (*Trace, error) {
	if len(b) < len(ZYTMagic) {
		return nil, fmt.Errorf("trace: zyt magic: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(ZYTMagic)]) != ZYTMagic {
		return nil, fmt.Errorf("trace: bad magic %q", b[:len(ZYTMagic)])
	}
	b = b[len(ZYTMagic):]
	rows := buf.decodeRows(zytCountRows(b))
	var local zytDecoder
	d := &local
	if buf != nil {
		d = buf.decoder()
	} else {
		local.intern = make(map[string]string)
	}
	var tr *Trace
	decoded := 0
	for {
		typ, payload, rest, err := zytNextFrame(b)
		if err != nil {
			return nil, err
		}
		b = rest
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
			n, err := d.decodeBlock(payload, rows[decoded:])
			if err != nil {
				return nil, err
			}
			decoded += n
		case zytFrameEnd:
			if tr == nil {
				return nil, fmt.Errorf("trace: zyt: end frame before header")
			}
			c := zytCursor{p: payload}
			total := c.uvarint()
			if c.err != nil || c.remaining() != 0 {
				return nil, fmt.Errorf("trace: zyt: malformed end frame")
			}
			if total != uint64(decoded) {
				return nil, fmt.Errorf("trace: zyt: end frame claims %d rows, decoded %d", total, decoded)
			}
			if len(b) != 0 {
				return nil, fmt.Errorf("trace: zyt: trailing data after end frame")
			}
			if decoded > 0 {
				tr.Rows = rows[:decoded:decoded]
			}
			return tr, nil
		default:
			return nil, fmt.Errorf("trace: zyt: unknown frame type 0x%02x", typ)
		}
	}
}

// zytDecoder carries one decode's state: the file-wide string intern
// table, the current block's string and camera tables, and the buffer
// the rows' actors come from (nil: each block allocates its own).
type zytDecoder struct {
	intern   map[string]string
	table    []string
	camTable []string
	camLast  []uint64
	buf      *RowBuffer
}

// decoder returns b's decoder state for one decode into b, its intern
// table cleared.
func (b *RowBuffer) decoder() *zytDecoder {
	if b.dec.intern == nil {
		b.dec.intern = make(map[string]string)
	}
	clear(b.dec.intern)
	b.dec.buf = b
	return &b.dec
}

func (d *zytDecoder) internBytes(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// readTable reads a block-local string table into dst's backing array.
func (d *zytDecoder) readTable(c *zytCursor, dst []string) []string {
	dst = dst[:0]
	n := c.count(c.remaining())
	for i := 0; i < n && c.err == nil; i++ {
		l := c.count(c.remaining())
		dst = append(dst, d.internBytes(c.take(l)))
	}
	return dst
}

// id reads one agent ID as a string table reference.
func (d *zytDecoder) id(c *zytCursor) string {
	idx := c.uvarint()
	if idx >= uint64(len(d.table)) {
		c.fail("string index %d out of table", idx)
		return ""
	}
	return d.table[idx]
}

// decodeBlock decodes one row block into the head of dst and returns
// how many rows it filled. Ego columns decode in place; the block's
// actors share one backing array.
func (d *zytDecoder) decodeBlock(p []byte, dst []Row) (int, error) {
	c := zytCursor{p: p}
	n := c.blockRows()
	if c.err == nil && n > len(dst) {
		c.fail("row block past the %d counted rows", len(dst))
	}
	d.table = d.readTable(&c, d.table)
	if c.err != nil {
		return 0, c.err
	}
	rows := dst[:n]

	var prev uint64
	for i := range rows {
		prev = c.delta(prev)
		rows[i].Time = math.Float64frombits(prev)
	}
	for i := range rows {
		rows[i].Ego.ID = d.id(&c)
	}
	for f := range zytAgentFloats {
		prev = 0
		for i := range rows {
			prev = c.delta(prev)
			*agentFloat(&rows[i].Ego, f) = math.Float64frombits(prev)
		}
	}
	var lane int64
	for i := range rows {
		lane += c.svarint()
		rows[i].Ego.Lane = int(lane)
	}
	if packed := c.take((n + 7) / 8); c.err == nil {
		for i := range rows {
			rows[i].Ego.Static = bit(packed, i)
		}
	}
	prev = 0
	for i := range rows {
		prev = c.delta(prev)
		rows[i].CmdAccel = math.Float64frombits(prev)
	}
	if packed := c.take((n + 7) / 8); c.err == nil {
		for i := range rows {
			rows[i].AEB = bit(packed, i)
		}
	}
	if c.err != nil {
		return 0, c.err
	}

	// Actor shapes: 0 = nil slice, k+1 = k actors. The column is read
	// twice — once to size the block's one actor backing array, once
	// to carve the per-row slices from it.
	shapes := c.off
	total := 0
	for range rows {
		if shape := c.count(c.remaining() + 1); shape > 0 {
			total += shape - 1
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	shapeCol := zytCursor{p: c.p[shapes:c.off]}
	// Every agent costs at least 10 payload bytes (one varint per
	// column plus the static bit), so a shape column claiming more is
	// corrupt — checked before the backing allocation, which is ~10x
	// the wire size per agent.
	if total > c.remaining()/10+1 {
		c.fail("actor total %d exceeds remaining payload", total)
		return 0, c.err
	}
	actors := d.buf.blockActors(total)
	for i := range actors {
		actors[i].ID = d.id(&c)
	}
	for f := range zytAgentFloats {
		prev = 0
		for i := range actors {
			prev = c.delta(prev)
			*agentFloat(&actors[i], f) = math.Float64frombits(prev)
		}
	}
	lane = 0
	for i := range actors {
		lane += c.svarint()
		actors[i].Lane = int(lane)
	}
	if packed := c.take((total + 7) / 8); c.err == nil {
		for i := range actors {
			actors[i].Static = bit(packed, i)
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	off := 0
	for i := range rows {
		rows[i].Actors = nil
		if shape := int(shapeCol.uvarint()); shape > 0 {
			k := shape - 1
			rows[i].Actors = actors[off : off+k : off+k]
			off += k
		}
	}

	d.camTable = d.readTable(&c, d.camTable)
	d.camLast = append(d.camLast[:0], make([]uint64, len(d.camTable))...)
	for i := 0; i < n && c.err == nil; i++ {
		rows[i].Rates = nil
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
			d.camLast[idx] = c.delta(d.camLast[idx])
			m[d.camTable[idx]] = math.Float64frombits(d.camLast[idx])
		}
		rows[i].Rates = m
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.remaining() != 0 {
		c.fail("trailing bytes in row block")
	}
	return n, c.err
}
