package core

import (
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
// stride, that is class 0 alone. The index belongs to one EvaluateTrace
// call and reads the trace in place.
type futureIndex struct {
	tr      *trace.Trace
	stride  int
	horizon float64
	classes []*futureClass // by residue, nil until first asked for
}

// futureClass is one residue class r: slot q stands for row r+q·stride.
type futureClass struct {
	times  []float64      // row time per slot
	column map[string]int // actor ID -> index into states/runEnd
	states [][]world.TrajectoryPoint
	// runEnd[c][q] is the first slot at or after q whose row does not
	// list actor c (q itself where it is absent, len(times) if none).
	runEnd [][]int32
}

func newFutureIndex(tr *trace.Trace, stride int, horizon float64) *futureIndex {
	return &futureIndex{tr: tr, stride: stride, horizon: horizon, classes: make([]*futureClass, stride)}
}

// instant returns the class and slot of row i and the end of its
// horizon: the first slot after q whose row lies more than horizon
// seconds after row i.
func (x *futureIndex) instant(i int) (c *futureClass, q, end int) {
	r := i % x.stride
	c = x.classes[r]
	if c == nil {
		c = x.build(r)
		x.classes[r] = c
	}
	q = i / x.stride
	start := c.times[q]
	end = q
	for end < len(c.times) && c.times[end]-start <= x.horizon {
		end++
	}
	return c, q, end
}

func (x *futureIndex) build(r int) *futureClass {
	rows := x.tr.Rows
	slots := (len(rows) - r + x.stride - 1) / x.stride
	c := &futureClass{times: make([]float64, slots), column: make(map[string]int)}
	for q := range slots {
		row := &rows[r+q*x.stride]
		c.times[q] = row.Time
		for k := range row.Actors {
			a := &row.Actors[k]
			col, ok := c.column[a.ID]
			if !ok {
				col = len(c.states)
				c.column[a.ID] = col
				c.states = append(c.states, make([]world.TrajectoryPoint, slots))
				c.runEnd = append(c.runEnd, make([]int32, slots))
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
	return c
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
