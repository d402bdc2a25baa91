package trace

// A frozen copy of the ZYT1 decoder as it stood before the decoder
// rewrite: closure-driven column loops over a streaming frame reader.
// The differential tests pin the current decoder against it, so any
// input it accepts decodes to the same trace and any input it rejects
// is rejected. Only identifiers are renamed (FrozenReadZYT is exported
// for the external tests that record Table-1 traces); do not edit the
// logic.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/world"
)

// frozenCursor is a bounds-checked reader over one frame payload. Every
// accessor short-circuits once an error is recorded, so decode loops
// need only check err at section boundaries.
type frozenCursor struct {
	p   []byte
	off int
	err error
}

func (c *frozenCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: zyt offset %d: %s", c.off, fmt.Sprintf(format, args...))
	}
}

func (c *frozenCursor) remaining() int { return len(c.p) - c.off }

func (c *frozenCursor) uvarint() uint64 {
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

func (c *frozenCursor) svarint() int64 {
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
func (c *frozenCursor) count(max int) int {
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

func (c *frozenCursor) take(n int) []byte {
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

// frozenDecoder carries file-scoped decode state: the string intern table
// and reusable per-block scratch.
type frozenDecoder struct {
	intern   map[string]string
	frameBuf []byte
	table    []string
	counts   []int
	camTable []string
	camLast  []uint64
}

func (d *frozenDecoder) internBytes(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// FrozenReadZYT parses a ZYT1 binary trace. It streams frame by frame —
// memory is bounded by the largest single frame plus the decoded rows
// — and rejects truncation, trailing garbage, frame-order violations,
// and any count that exceeds the bytes backing it.
func FrozenReadZYT(r io.Reader) (*Trace, error) {
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
	d := frozenDecoder{intern: make(map[string]string)}
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
			c := frozenCursor{p: payload}
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

func (d *frozenDecoder) decodeBlock(p []byte, tr *Trace) error {
	c := frozenCursor{p: p}
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

func (d *frozenDecoder) decodeAgents(c *frozenCursor, n int, at func(int) *world.Agent) error {
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

func (d *frozenDecoder) unbitpack(c *frozenCursor, n int, set func(int, bool)) {
	bytes := c.take((n + 7) / 8)
	if c.err != nil {
		return
	}
	for i := 0; i < n; i++ {
		set(i, bytes[i/8]&(1<<(i%8)) != 0)
	}
}
