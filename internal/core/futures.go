package core

import (
	"math"

	"repro/internal/trace"
	"repro/internal/world"
)

// futureIndex serves the recorded ground-truth futures EvaluateTrace
// hands the Zhuyi model: for the actor at row i, the states at rows
// i, i+stride, … up to horizon seconds ahead, ending at the first
// sampled row that does not list the actor, with the first listing
// taken where a row lists an ID twice (the |T| = 1 trajectory set of
// §3.1).
//
// Rows sharing a residue i mod stride share their sampled rows, so the
// index lays each residue class out once per actor ID as a column of
// states, one slot per sampled row, and an instant's future is a
// subslice of its column. A class is built the first time an instant
// in it is asked for: when the evaluation period is a multiple of the
// stride, that is class 0 alone. The index serves one EvaluateTrace
// call at a time and reads the trace in place; reset readies it for
// the next trace, keeping the columns earlier traces grew.
type futureIndex struct {
	tr      *trace.Trace
	stride  int
	horizon float64
	classes []futureClass // by residue
}

// futureClass is one residue class r: slot q stands for row r+q·stride.
// Its columns outlive a reset: a rebuild refills them in place.
type futureClass struct {
	built  bool           // filled for the current trace
	times  []float64      // row time per slot
	column map[string]int // actor ID -> index into states/runEnd
	states [][]world.TrajectoryPoint
	// runEnd[c][q] is the first slot at or after q whose row does not
	// list actor c (q itself where it is absent, len(times) if none).
	runEnd [][]int32

	// ascending: times are finite and never decrease, so a horizon end
	// never moves back as q grows and instant resumes its scan from
	// lastEnd, the end it returned for slot lastQ.
	ascending      bool
	lastQ, lastEnd int
}

// reset points the index at tr with every class unbuilt.
func (x *futureIndex) reset(tr *trace.Trace, stride int, horizon float64) {
	x.tr, x.stride, x.horizon = tr, stride, horizon
	if cap(x.classes) < stride {
		old := x.classes[:cap(x.classes)]
		x.classes = make([]futureClass, stride)
		copy(x.classes, old)
	}
	x.classes = x.classes[:stride]
	for r := range x.classes {
		x.classes[r].built = false
	}
}

// instant returns the class and slot of row i and the end of its
// horizon: the first slot after q whose row lies more than horizon
// seconds after row i.
func (x *futureIndex) instant(i int) (c *futureClass, q, end int) {
	r := i % x.stride
	c = &x.classes[r]
	if !c.built {
		x.build(c, r)
	}
	q = i / x.stride
	start := c.times[q]
	end = q
	if c.ascending && q >= c.lastQ {
		// Every slot in [lastQ, lastEnd) lies within the horizon of
		// lastQ, so one in [q, lastEnd) does of q: its time is no
		// later and q's no earlier, and rounded subtraction keeps
		// that order.
		end = max(q, c.lastEnd)
	}
	for end < len(c.times) && c.times[end]-start <= x.horizon {
		end++
	}
	c.lastQ, c.lastEnd = q, end
	return c, q, end
}

func (x *futureIndex) build(c *futureClass, r int) {
	rows := x.tr.Rows
	slots := (len(rows) - r + x.stride - 1) / x.stride
	c.built = true
	c.times = fit(c.times, slots)
	if c.column == nil {
		c.column = make(map[string]int)
	}
	clear(c.column)
	c.states, c.runEnd = c.states[:0], c.runEnd[:0]
	c.ascending, c.lastQ, c.lastEnd = true, 0, 0
	for q := range slots {
		row := &rows[r+q*x.stride]
		c.times[q] = row.Time
		if math.IsNaN(row.Time) || math.IsInf(row.Time, 0) || q > 0 && row.Time < c.times[q-1] {
			c.ascending = false
		}
		for k := range row.Actors {
			a := &row.Actors[k]
			col, ok := c.column[a.ID]
			if !ok {
				col = len(c.states)
				c.column[a.ID] = col
				// A state is read only where its run end marks it
				// present, so a reused column needs no clearing; its
				// run ends do.
				c.states = nextColumn(c.states, slots)
				c.runEnd = nextColumn(c.runEnd, slots)
				clear(c.runEnd[col])
			}
			if c.runEnd[col][q] != 0 {
				continue // a later listing of an ID this row already gave
			}
			c.runEnd[col][q] = 1 // present; resolved into run ends below
			c.states[col][q] = world.TrajectoryPoint{
				T:       row.Time,
				Pos:     a.Pose.Pos,
				Heading: a.Pose.Heading,
				Speed:   a.Speed,
				Accel:   a.Accel,
			}
		}
	}
	for _, ends := range c.runEnd {
		next := int32(slots)
		for q := slots - 1; q >= 0; q-- {
			if ends[q] == 0 {
				next = int32(q)
			}
			ends[q] = next
		}
	}
}

// nextColumn appends a column of n slots to cols, reusing the column a
// previous build left in that position.
func nextColumn[T any](cols [][]T, n int) [][]T {
	k := len(cols)
	if k < cap(cols) {
		cols = cols[:k+1]
	} else {
		cols = append(cols, nil)
	}
	cols[k] = fit(cols[k], n)
	return cols
}

// fit returns s resized to n, keeping its array when it holds n. New
// storage is exact; storage that has to grow takes a quarter more, so
// a stream of slightly larger traces does not regrow it every time.
func fit[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case s == nil:
		return make([]T, n)
	default:
		return make([]T, n, n+n/4)
	}
}

// future returns actor id's recorded future from slot q, cut at the
// horizon end: nil if the class never lists id or lists it nowhere in
// [q, end). The slice's capacity is its length, so appending to it
// cannot write into a later instant's future.
func (c *futureClass) future(id string, q, end int) []world.TrajectoryPoint {
	col, ok := c.column[id]
	if !ok {
		return nil
	}
	end = min(end, int(c.runEnd[col][q]))
	if end <= q {
		return nil
	}
	return c.states[col][q:end:end]
}
