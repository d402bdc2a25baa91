package world

import "repro/internal/geom"

// Frame is a structure-of-arrays view of the ground-truth agents of
// one simulation instant. The simulator's per-step sweeps — collision
// pre-filtering, min-gap bookkeeping, sensor cone tests, occlusion
// rays, perception measurement updates — iterate these flat slices
// linearly instead of walking []Agent values (112 bytes a piece, which
// the profiler bills as runtime.duffcopy), and share the per-agent
// heading trigonometry and footprint geometry that the agent-of-structs
// walk recomputed at every use.
//
// Agent round-trips exactly: Set stores every field unmodified and
// Agent reassembles them unmodified, so materializing []Agent rows at
// the record/API boundary yields byte-identical traces. The cached
// SinH/CosH are exactly geom.SinCos(Heading), and Quad is exactly
// geom.MakeQuad of the agent's BBox.
type Frame struct {
	n int

	IDs     []string
	X, Y    []float64 // world position
	Heading []float64
	SinH    []float64 // sin(Heading), cached once per Set
	CosH    []float64 // cos(Heading)
	Speed   []float64
	Accel   []float64
	LatVel  []float64
	Length  []float64
	Width   []float64
	Radius  []float64 // FootprintRadiusBound(Length, Width)
	Lane    []int
	Static  []bool

	quadOK []bool
	quads  []geom.Quad
	filled []bool // column has been Set at least once (memos valid)
}

// NewFrame returns a frame sized for n agents, all zero-valued until
// Set.
func NewFrame(n int) *Frame {
	return &Frame{
		n:       n,
		IDs:     make([]string, n),
		X:       make([]float64, n),
		Y:       make([]float64, n),
		Heading: make([]float64, n),
		SinH:    make([]float64, n),
		CosH:    make([]float64, n),
		Speed:   make([]float64, n),
		Accel:   make([]float64, n),
		LatVel:  make([]float64, n),
		Length:  make([]float64, n),
		Width:   make([]float64, n),
		Radius:  make([]float64, n),
		Lane:    make([]int, n),
		Static:  make([]bool, n),
		quadOK:  make([]bool, n),
		quads:   make([]geom.Quad, n),
		filled:  make([]bool, n),
	}
}

// Len returns the number of agents in the frame.
func (f *Frame) Len() int { return f.n }

// Set scatters one agent's state into the arrays. Equivalent to
// SetDirect; kept as the boundary-struct convenience.
func (f *Frame) Set(i int, a Agent) {
	f.SetDirect(i, a.ID, a.Pose, a.Speed, a.Accel, a.LatVel, a.Length, a.Width, a.Lane, a.Static)
}

// SetDirect scatters one agent's state from its individual fields,
// avoiding the 112-byte Agent copy on the per-step path. Derived
// columns are refreshed only when their inputs changed since the last
// Set of this index: SinH/CosH when the heading moved, Radius when the
// footprint dims moved (they never do mid-run), and the cached quad
// survives whenever pose and dims are both unchanged — a parked
// obstacle keeps one quad for the whole run. Each memo guards a pure
// function of the compared inputs, so reuse is bit-identical to
// recomputation.
func (f *Frame) SetDirect(i int, id string, pose geom.Pose, speed, accel, latVel, length, width float64, lane int, static bool) {
	if !f.filled[i] {
		f.SinH[i], f.CosH[i] = geom.SinCos(pose.Heading)
		f.Radius[i] = FootprintRadiusBound(length, width)
		f.quadOK[i] = false
		f.filled[i] = true
	} else {
		sameDims := length == f.Length[i] && width == f.Width[i]
		if pose.Heading != f.Heading[i] {
			f.SinH[i], f.CosH[i] = geom.SinCos(pose.Heading)
			f.quadOK[i] = false
		} else if !sameDims || pose.Pos.X != f.X[i] || pose.Pos.Y != f.Y[i] {
			f.quadOK[i] = false
		}
		if !sameDims {
			f.Radius[i] = FootprintRadiusBound(length, width)
		}
	}
	f.IDs[i] = id
	f.X[i] = pose.Pos.X
	f.Y[i] = pose.Pos.Y
	f.Heading[i] = pose.Heading
	f.Speed[i] = speed
	f.Accel[i] = accel
	f.LatVel[i] = latVel
	f.Length[i] = length
	f.Width[i] = width
	f.Lane[i] = lane
	f.Static[i] = static
}

// Agent gathers agent i back into the boundary representation,
// bit-exactly as it was Set.
func (f *Frame) Agent(i int) Agent {
	return Agent{
		ID:     f.IDs[i],
		Pose:   geom.Pose{Pos: geom.Vec2{X: f.X[i], Y: f.Y[i]}, Heading: f.Heading[i]},
		Speed:  f.Speed[i],
		Accel:  f.Accel[i],
		LatVel: f.LatVel[i],
		Length: f.Length[i],
		Width:  f.Width[i],
		Lane:   f.Lane[i],
		Static: f.Static[i],
	}
}

// AppendAgents materializes every agent into dst (reusing its backing
// array) — the record/API boundary view.
func (f *Frame) AppendAgents(dst []Agent) []Agent {
	for i := 0; i < f.n; i++ {
		dst = append(dst, f.Agent(i))
	}
	return dst
}

// Velocity returns agent i's world-frame velocity, exactly
// Agent.Velocity on the cached trigonometry.
func (f *Frame) Velocity(i int) geom.Vec2 {
	s, c := f.SinH[i], f.CosH[i]
	sp, lv := f.Speed[i], f.LatVel[i]
	return geom.Vec2{X: c*sp + (-s)*lv, Y: s*sp + c*lv}
}

// Quad returns agent i's footprint quad (geom.MakeQuad of its BBox),
// built lazily once per Set and shared by every sweep of the step.
func (f *Frame) Quad(i int) *geom.Quad {
	if !f.quadOK[i] {
		b := geom.OBB{
			Center:  geom.Vec2{X: f.X[i], Y: f.Y[i]},
			Heading: f.Heading[i],
			Length:  f.Length[i],
			Width:   f.Width[i],
		}
		f.quads[i] = geom.MakeQuadTrig(b, f.SinH[i], f.CosH[i])
		f.quadOK[i] = true
	}
	return &f.quads[i]
}
