// Package perception simulates the AV's camera perception stack at the
// fidelity Zhuyi is sensitive to. Real DNN perception is replaced by a
// measurement model with the same latency structure (see DESIGN.md):
//
//   - each camera only produces measurements when a frame is processed,
//     so all tracks go stale between frames at low processing rates;
//   - a new object must be detected in K consecutive processed frames
//     before it is confirmed and exposed to the planner — the actor
//     confirmation delay the paper models as α = K·(l − l0);
//   - measurements carry seeded Gaussian noise and a detection
//     probability, producing the run-to-run variance the paper averages
//     over ten runs.
//
// Track states are estimated with an independent g-h-k (alpha-beta-gamma)
// filter per axis, so position, velocity, and acceleration estimates lag
// reality by an amount that grows as the frame interval grows.
package perception

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/sensor"
	"repro/internal/world"
)

// Config tunes the simulated perception stack.
type Config struct {
	ConfirmFrames int     // K: consecutive detections to confirm a track
	MaxMisses     int     // processed-frame misses before a track drops
	DetectProb    float64 // per-frame detection probability of a visible actor
	PosNoise      float64 // std-dev of position measurement noise, m
	VelNoise      float64 // std-dev of velocity measurement noise, m/s
	Alpha         float64 // g-h-k position gain
	Beta          float64 // g-h-k velocity gain
	Gamma         float64 // g-h-k acceleration gain
	VelGain       float64 // direct velocity-measurement blend gain
	MaxAccelEst   float64 // clamp on the acceleration estimate, m/s²
}

// DefaultConfig matches the paper's perception parameters where given
// (K = 5) and uses typical tracker gains elsewhere.
func DefaultConfig() Config {
	return Config{
		ConfirmFrames: 5,
		MaxMisses:     8,
		DetectProb:    1.0,
		PosNoise:      0.25,
		VelNoise:      0.5,
		Alpha:         0.6,
		Beta:          0.4,
		Gamma:         0.08,
		VelGain:       0.5,
		MaxAccelEst:   12,
	}
}

// axisFilter is a g-h-k filter along one world axis.
type axisFilter struct {
	X, V, A float64
}

func (f *axisFilter) predict(dt float64) {
	f.X += f.V*dt + 0.5*f.A*dt*dt
	f.V += f.A * dt
}

// update fuses a position measurement z and a direct velocity
// measurement zv. The g-h-k position-residual gains divide by the frame
// interval, so with irregular schedules (dynamic frame rates) a short
// interval would amplify position noise into huge velocity/acceleration
// corrections; the direct velocity blend and the acceleration clamp
// keep the estimate physical.
func (f *axisFilter) update(z, zv, dt float64, cfg Config) {
	r := z - f.X
	f.X += cfg.Alpha * r
	if dt > 0 {
		f.V += cfg.Beta / dt * r
		f.A += 2 * cfg.Gamma / (dt * dt) * r
	}
	if cfg.VelGain > 0 {
		f.V += cfg.VelGain * (zv - f.V)
	}
	if cfg.MaxAccelEst > 0 {
		if f.A > cfg.MaxAccelEst {
			f.A = cfg.MaxAccelEst
		}
		if f.A < -cfg.MaxAccelEst {
			f.A = -cfg.MaxAccelEst
		}
	}
}

// Track is the pipeline's estimate of one actor.
type Track struct {
	ID          string
	Confirmed   bool
	Hits        int // consecutive detections while unconfirmed
	Misses      int // consecutive missed frames
	FirstSeen   float64
	ConfirmedAt float64
	LastUpdate  float64
	Length      float64
	Width       float64

	fx, fy axisFilter

	// detected marks the track as measured in the frame being
	// processed (the per-frame scratch that used to live in a map).
	detected bool

	// Coasted-state memo: within one simulation step the same track is
	// queried at the same instant by several cameras' miss checks and
	// the world model; the coasted state is pure, so the pipeline caches it
	// (invalidated on every measurement update).
	cacheValid bool
	cacheT     float64
	cacheState world.Agent
}

// fillState coasts the track estimate to time t and writes it into dst
// in place — the per-step sweeps fill the track's own cache slot
// instead of copying the 112-byte agent through a return value.
func (tk *Track) fillState(t float64, dst *world.Agent) {
	dt := t - tk.LastUpdate
	x := tk.fx
	y := tk.fy
	x.predict(dt)
	y.predict(dt)
	vel := geom.V(x.V, y.V)
	speed := vel.Len()
	// Slow/static targets pin heading and acceleration to 0 (a stable
	// heading for near-stationary estimates), so their Atan2 and
	// acceleration projection are never computed at all — stationary
	// obstacles and stopped leads coast through this branch every step.
	heading, accel := 0.0, 0.0
	if speed >= 0.3 {
		heading = vel.Angle()
		// Longitudinal acceleration: projection of the estimated
		// acceleration onto the velocity direction. Scaling by the
		// already-computed length is exactly vel.Unit() — Unit
		// recomputes the identical Len — minus the second hypot.
		accel = geom.V(x.A, y.A).Dot(vel.Scale(1 / speed))
	}
	// Field writes instead of a composite literal: the literal builds a
	// 112-byte temporary and block-copies it into dst every call.
	dst.ID = tk.ID
	dst.Pose.Pos.X = x.X
	dst.Pose.Pos.Y = y.X
	dst.Pose.Heading = heading
	dst.Speed = speed
	dst.Accel = accel
	dst.LatVel = 0
	dst.Length = tk.Length
	dst.Width = tk.Width
	dst.Lane = 0
	dst.Static = speed < 0.3
}

// Pipeline is the camera perception stack: it consumes processed frames
// and maintains the set of tracks that form the perceived world model.
//
// Tracks live in a slice kept sorted by ID (scenes hold a handful of
// actors, so ordered linear scans beat map hashing and give the world
// model its deterministic order for free — the per-step hot path walks
// the slice without the per-frame map iteration and re-sort the map
// representation needed).
type Pipeline struct {
	cfg Config
	rng *rand.Rand

	tracks []*Track // ascending ID order

	// Per-frame scratch, reused across ProcessFrame calls so the
	// simulator's hot loop does not allocate per frame.
	visScratch []world.Agent

	// Stats.
	FramesProcessed int
	Detections      int
	Confirmations   int
}

// NewPipeline builds a pipeline with the given config and noise seed.
func NewPipeline(cfg Config, seed int64) *Pipeline {
	return &Pipeline{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// findTrack returns the track with the given ID, or nil plus the
// insertion index that keeps the slice sorted.
func (p *Pipeline) findTrack(id string) (*Track, int) {
	for i, tk := range p.tracks {
		if tk.ID == id {
			return tk, i
		}
		if tk.ID > id {
			return nil, i
		}
	}
	return nil, len(p.tracks)
}

func (p *Pipeline) insertTrack(at int, tk *Track) {
	p.tracks = append(p.tracks, nil)
	copy(p.tracks[at+1:], p.tracks[at:])
	p.tracks[at] = tk
}

// ProcessFrame ingests one processed camera frame at time t. cam is the
// camera whose frame this is; ego is the ground-truth ego agent; actors
// are the ground-truth actors (the frame "sees" those inside the
// camera's FOV and not occluded).
func (p *Pipeline) ProcessFrame(cam sensor.Camera, t float64, ego world.Agent, actors []world.Agent) {
	p.FramesProcessed++
	p.visScratch = sensor.AppendVisible(p.visScratch[:0], cam, ego.Pose, actors)
	for _, tk := range p.tracks {
		tk.detected = false
	}

	for _, a := range p.visScratch {
		if p.rng.Float64() > p.cfg.DetectProb {
			continue // missed detection
		}
		p.Detections++
		vel := a.Velocity()
		p.ingest(a.ID, a.Pose.Pos.X, a.Pose.Pos.Y, vel.X, vel.Y, a.Length, a.Width, t)
	}

	// Tracks whose estimate lies in this camera's FOV but were not
	// detected this frame accumulate misses.
	cone := sensor.NewFrameCone(cam, ego.Pose)
	kept := p.tracks[:0]
	for _, tk := range p.tracks {
		if tk.detected {
			kept = append(kept, tk)
			continue
		}
		est := p.ensureState(tk, t)
		if cone.CannotSee(*est) || !cam.SeesAgent(ego.Pose, *est) {
			kept = append(kept, tk) // not this camera's responsibility
			continue
		}
		if p.recordMiss(tk) {
			kept = append(kept, tk)
		}
	}
	p.clearTail(len(kept))
	p.tracks = kept
}

// ProcessFrameIdx is ProcessFrame over the structure-of-arrays world
// frame: visIdx holds the frame indices of the visible actors (from
// sensor.RigCones.AppendVisibleIdx), and the measurement and miss
// sweeps read the flat arrays and the precomputed cone table. The RNG
// draw order and every filter update are identical to ProcessFrame on
// the materialized agents.
func (p *Pipeline) ProcessFrameIdx(rc *sensor.RigCones, ci int, t float64, f *world.Frame, visIdx []int) {
	p.FramesProcessed++
	for _, tk := range p.tracks {
		tk.detected = false
	}

	for _, i := range visIdx {
		if p.rng.Float64() > p.cfg.DetectProb {
			continue // missed detection
		}
		p.Detections++
		vel := f.Velocity(i)
		p.ingest(f.IDs[i], f.X[i], f.Y[i], vel.X, vel.Y, f.Length[i], f.Width[i], t)
	}

	kept := p.tracks[:0]
	for _, tk := range p.tracks {
		if tk.detected {
			kept = append(kept, tk)
			continue
		}
		est := p.ensureState(tk, t)
		if !rc.SeesAgentAt(ci, est) {
			kept = append(kept, tk) // not this camera's responsibility
			continue
		}
		if p.recordMiss(tk) {
			kept = append(kept, tk)
		}
	}
	p.clearTail(len(kept))
	p.tracks = kept
}

// recordMiss applies one missed processed frame to the track and
// reports whether the track survives.
func (p *Pipeline) recordMiss(tk *Track) bool {
	tk.Misses++
	if !tk.Confirmed {
		tk.Hits = 0 // confirmation requires consecutive detections
	}
	return tk.Misses <= p.cfg.MaxMisses
}

// clearTail nils the dropped tail of the track slice so deleted tracks
// do not leak through the retained backing array.
func (p *Pipeline) clearTail(from int) {
	for i := from; i < len(p.tracks); i++ {
		p.tracks[i] = nil
	}
}

// ingest fuses one noisy measurement of actor id at (px,py) moving at
// (vx,vy) into its track, creating the track on first sight. The four
// NormFloat64 draws happen in the exact order the original
// agent-of-structs path made them.
func (p *Pipeline) ingest(id string, px, py, vx, vy, length, width, t float64) {
	zx := px + p.rng.NormFloat64()*p.cfg.PosNoise
	zy := py + p.rng.NormFloat64()*p.cfg.PosNoise
	zvx := vx + p.rng.NormFloat64()*p.cfg.VelNoise
	zvy := vy + p.rng.NormFloat64()*p.cfg.VelNoise

	tk, at := p.findTrack(id)
	if tk == nil {
		tk = &Track{
			ID:        id,
			FirstSeen: t,
			Length:    length,
			Width:     width,
			fx:        axisFilter{X: zx, V: zvx},
			fy:        axisFilter{X: zy, V: zvy},
		}
		tk.Hits = 1
		tk.LastUpdate = t
		tk.detected = true
		p.insertTrack(at, tk)
		p.maybeConfirm(tk, t)
		return
	}

	dt := t - tk.LastUpdate
	tk.fx.predict(dt)
	tk.fy.predict(dt)
	tk.fx.update(zx, zvx, dt, p.cfg)
	tk.fy.update(zy, zvy, dt, p.cfg)
	tk.LastUpdate = t
	tk.Misses = 0
	tk.detected = true
	tk.cacheValid = false
	if !tk.Confirmed {
		tk.Hits++
		p.maybeConfirm(tk, t)
	}
}

// ensureState is the track's fillState estimate at t, memoized per
// (track, t) and returned as the cache slot itself: fillState is a pure
// function of the filter state, which only updateTrack mutates (it
// invalidates the memo), so the cached agent is exactly what fillState
// would recompute. The pointer is only valid until the track's next
// measurement update.
func (p *Pipeline) ensureState(tk *Track, t float64) *world.Agent {
	if !tk.cacheValid || tk.cacheT != t {
		tk.fillState(t, &tk.cacheState)
		tk.cacheT, tk.cacheValid = t, true
	}
	return &tk.cacheState
}

func (p *Pipeline) maybeConfirm(tk *Track, t float64) {
	if !tk.Confirmed && tk.Hits >= p.cfg.ConfirmFrames {
		tk.Confirmed = true
		tk.ConfirmedAt = t
		p.Confirmations++
	}
}

// WorldModel returns the perceived world model at time t: every
// confirmed track coasted to t. The result is sorted by ID for
// determinism.
func (p *Pipeline) WorldModel(t float64) []world.Agent {
	return p.WorldModelAppend(nil, t)
}

// WorldModelAppend is WorldModel appending into dst (reusing its
// backing array), so per-step callers — the simulator's perception
// stage — amortize the allocation to zero. The track slice is kept
// sorted by ID, so the walk emits the deterministic order directly.
func (p *Pipeline) WorldModelAppend(dst []world.Agent, t float64) []world.Agent {
	for _, tk := range p.tracks {
		if !tk.Confirmed {
			continue
		}
		// Fill the new slot directly instead of copying through the
		// track's coast cache: fillState writes every Agent field, and
		// on the common (non-frame-instant) step nothing else needs the
		// state at this t, so priming the cache would only add a
		// 112-byte copy. A cache already valid for t (primed by this
		// step's frame processing) is reused as before.
		n := len(dst)
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			dst = append(dst, world.Agent{})
		}
		if tk.cacheValid && tk.cacheT == t {
			dst[n] = tk.cacheState
		} else {
			tk.fillState(t, &dst[n])
		}
	}
	return dst
}
