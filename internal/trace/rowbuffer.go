package trace

import "repro/internal/world"

// RowBuffer is reusable storage for a trace's rows: the row array, the
// backing array every row's actor slice is carved from, and, for
// decoding, the object bytes and the decoder's string tables. Two
// producers fill it. The simulator records a LevelFull run into it
// (sim.RunInto, through Take), and DecodeZYTInto decodes a ZYT1 object
// into it, after the store has read the object into Bytes (store's
// TraceInto).
//
// A trace that aliases a buffer is valid until the next run, decode or
// Bytes call into that buffer, which overwrites the storage in place.
// Keep a buffer with one owner, such as one worker goroutine, and let
// it record or decode the next trace only once nothing reads the last
// one. The zero value is an empty buffer; a nil *RowBuffer allocates
// fresh storage on every call, as the buffer-less paths do.
type RowBuffer struct {
	rows   []Row
	actors []world.Agent
	// used counts the agents the current decode has carved from actors.
	used int
	data []byte
	dec  zytDecoder
}

// Take returns row storage for up to rows rows and an actor backing
// of exactly actors agents, from b when it is large enough. A nil b
// always allocates. The backing is never a nil slice, even when empty:
// rows of an actor-less run carry empty, not nil, actor slices.
func (b *RowBuffer) Take(rows, actors int) ([]Row, []world.Agent) {
	if b == nil {
		return make([]Row, 0, rows), make([]world.Agent, actors)
	}
	if cap(b.rows) < rows {
		b.rows = make([]Row, 0, rows)
	}
	if b.actors == nil || cap(b.actors) < actors {
		b.actors = make([]world.Agent, actors)
	}
	return b.rows[:0], b.actors[:actors]
}

// Bytes returns n bytes of b's object storage, for a reader to fill
// and DecodeZYTInto to decode; a nil b allocates them. The contents are
// whatever the storage last held.
func (b *RowBuffer) Bytes(n int) []byte {
	if b == nil {
		return make([]byte, n)
	}
	if cap(b.data) < n {
		b.data = make([]byte, withHeadroom(n))
	}
	return b.data[:n]
}

// decodeRows returns n rows for a decode to fill, and resets the
// decode's actor carving. Reused rows keep their old contents, which
// the decode overwrites field by field.
func (b *RowBuffer) decodeRows(n int) []Row {
	if b == nil {
		return make([]Row, n)
	}
	b.used = 0
	if cap(b.rows) < n {
		b.rows = make([]Row, withHeadroom(n))
	}
	return b.rows[:n]
}

// blockActors returns a block's n agents: a new array with a nil b,
// else the next n agents of b's one actor backing. When the backing is
// too small, a larger one replaces it, sized for every agent this
// decode has carved so far, so the next decode of a trace this size
// fits; blocks carved before keep their slices of the old array.
func (b *RowBuffer) blockActors(n int) []world.Agent {
	if b == nil {
		return make([]world.Agent, n)
	}
	if b.actors == nil || b.used+n > cap(b.actors) {
		b.actors = make([]world.Agent, withHeadroom(b.used+n))
	}
	a := b.actors[b.used : b.used+n : b.used+n]
	b.used += n
	return a
}

// withHeadroom is the capacity a buffer grows to when it must hold n:
// a quarter more, so a stream of traces a little larger than the last
// one does not reallocate on every decode.
func withHeadroom(n int) int { return n + n/4 }
