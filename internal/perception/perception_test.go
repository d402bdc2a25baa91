package perception

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/sensor"
	"repro/internal/units"
	"repro/internal/world"
)

func frontCam() sensor.Camera {
	return sensor.Camera{Name: sensor.Front120, MountHeading: 0, FOV: units.DegToRad(120), Range: 150}
}

func egoAt(x float64) world.Agent {
	return world.Agent{ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(x, 0)}, Length: 4.6, Width: 1.9}
}

func actorAt(id string, x, y, speed float64) world.Agent {
	return world.Agent{
		ID:     id,
		Pose:   geom.Pose{Pos: geom.V(x, y), Heading: 0},
		Speed:  speed,
		Length: 4.6,
		Width:  1.9,
	}
}

// noiseless returns a config with no measurement noise and guaranteed
// detection, isolating the confirmation/tracking logic under test.
func noiseless(k int) Config {
	cfg := DefaultConfig()
	cfg.ConfirmFrames = k
	cfg.DetectProb = 1
	cfg.PosNoise = 0
	cfg.VelNoise = 0
	return cfg
}

// confirmationDelay is how long the actor's track took from first
// sighting to confirmation, or NaN if it is not confirmed.
func confirmationDelay(p *Pipeline, id string) float64 {
	tk, _ := p.findTrack(id)
	if tk == nil || !tk.Confirmed {
		return math.NaN()
	}
	return tk.ConfirmedAt - tk.FirstSeen
}

func TestConfirmationTakesKFrames(t *testing.T) {
	const k = 5
	p := NewPipeline(noiseless(k), 1)
	cam := frontCam()
	ego := egoAt(0)
	a := actorAt("a1", 40, 0, 10)

	frameInterval := 0.1
	for i := 0; i < k; i++ {
		tm := float64(i) * frameInterval
		if len(p.WorldModel(tm)) != 0 && i < k {
			t.Fatalf("track confirmed early at frame %d", i)
		}
		a.Pose.Pos.X = 40 + 10*tm
		p.ProcessFrame(cam, tm, ego, []world.Agent{a})
	}
	wm := p.WorldModel(0.5)
	if len(wm) != 1 {
		t.Fatalf("world model size = %d after %d frames", len(wm), k)
	}
	// Confirmation delay = (K-1) frame intervals from first sighting.
	if got := confirmationDelay(p, "a1"); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("confirmation delay = %v, want 0.4", got)
	}
}

func TestConfirmationDelayScalesWithFrameInterval(t *testing.T) {
	for _, interval := range []float64{0.033, 0.1, 0.5, 1.0} {
		p := NewPipeline(noiseless(5), 1)
		cam := frontCam()
		ego := egoAt(0)
		for i := 0; i < 5; i++ {
			tm := float64(i) * interval
			a := actorAt("a1", 40+10*tm, 0, 10)
			p.ProcessFrame(cam, tm, ego, []world.Agent{a})
		}
		want := 4 * interval
		if got := confirmationDelay(p, "a1"); math.Abs(got-want) > 1e-9 {
			t.Errorf("interval %v: delay = %v, want %v", interval, got, want)
		}
	}
}

func TestUnconfirmedConsecutiveRequirement(t *testing.T) {
	p := NewPipeline(noiseless(3), 1)
	cam := frontCam()
	ego := egoAt(0)
	a := actorAt("a1", 40, 0, 0)

	// Two detections, one miss (actor out of view), then more detections:
	// hits must restart.
	p.ProcessFrame(cam, 0.0, ego, []world.Agent{a})
	p.ProcessFrame(cam, 0.1, ego, []world.Agent{a})
	p.ProcessFrame(cam, 0.2, ego, []world.Agent{}) // miss
	p.ProcessFrame(cam, 0.3, ego, []world.Agent{a})
	p.ProcessFrame(cam, 0.4, ego, []world.Agent{a})
	if len(p.WorldModel(0.45)) != 0 {
		t.Fatal("confirmed despite interrupted detection streak")
	}
	p.ProcessFrame(cam, 0.5, ego, []world.Agent{a})
	if len(p.WorldModel(0.55)) != 1 {
		t.Fatal("not confirmed after 3 consecutive detections")
	}
}

func TestTrackDropsAfterMisses(t *testing.T) {
	cfg := noiseless(1)
	cfg.MaxMisses = 3
	p := NewPipeline(cfg, 1)
	cam := frontCam()
	ego := egoAt(0)
	a := actorAt("a1", 40, 0, 0)

	p.ProcessFrame(cam, 0, ego, []world.Agent{a})
	if len(p.WorldModel(0)) != 1 {
		t.Fatal("track not confirmed with K=1")
	}
	// The actor vanishes (e.g. leaves the scene) but its estimate stays in
	// FOV; after MaxMisses+1 missed frames the track drops.
	for i := 1; i <= 4; i++ {
		p.ProcessFrame(cam, float64(i)*0.1, ego, nil)
	}
	if len(p.WorldModel(0.5)) != 0 {
		t.Fatal("stale track not dropped")
	}
}

func TestTrackSurvivesOutOfFOV(t *testing.T) {
	cfg := noiseless(1)
	cfg.MaxMisses = 2
	p := NewPipeline(cfg, 1)
	front := frontCam()
	ego := egoAt(0)
	a := actorAt("a1", 40, 0, 0)
	p.ProcessFrame(front, 0, ego, []world.Agent{a})

	// Frames from a rear camera shouldn't penalize a front track.
	rear := sensor.Camera{Name: sensor.Rear, MountHeading: math.Pi, FOV: units.DegToRad(120), Range: 100}
	for i := 1; i <= 10; i++ {
		p.ProcessFrame(rear, float64(i)*0.1, ego, []world.Agent{a})
	}
	if len(p.WorldModel(1.1)) != 1 {
		t.Fatal("front track dropped by rear-camera frames")
	}
}

func TestTrackingEstimatesVelocity(t *testing.T) {
	p := NewPipeline(noiseless(1), 1)
	cam := frontCam()
	ego := egoAt(0)
	// Actor moving at 15 m/s; frames every 100 ms.
	for i := 0; i <= 20; i++ {
		tm := float64(i) * 0.1
		a := actorAt("a1", 40+15*tm, 0, 15)
		p.ProcessFrame(cam, tm, ego, []world.Agent{a})
	}
	wm := p.WorldModel(2.0)
	if len(wm) != 1 {
		t.Fatal("no track")
	}
	if math.Abs(wm[0].Speed-15) > 0.5 {
		t.Errorf("estimated speed = %v, want ~15", wm[0].Speed)
	}
	if math.Abs(wm[0].Pose.Pos.X-70) > 1.0 {
		t.Errorf("estimated x = %v, want ~70", wm[0].Pose.Pos.X)
	}
}

func TestCoastingBetweenFrames(t *testing.T) {
	p := NewPipeline(noiseless(1), 1)
	cam := frontCam()
	ego := egoAt(0)
	for i := 0; i <= 10; i++ {
		tm := float64(i) * 0.1
		a := actorAt("a1", 40+15*tm, 0, 15)
		p.ProcessFrame(cam, tm, ego, []world.Agent{a})
	}
	// Query half a second past the last frame: the estimate coasts.
	wm := p.WorldModel(1.5)
	if math.Abs(wm[0].Pose.Pos.X-(40+15*1.5)) > 1.5 {
		t.Errorf("coasted x = %v, want ~%v", wm[0].Pose.Pos.X, 40+15*1.5)
	}
}

func TestStalenessGrowsWithFrameInterval(t *testing.T) {
	// A lead actor starts braking hard at t=0. The planner consumes the
	// coasted world-model estimate continuously; its *overestimate* of the
	// lead's speed (perceived − true, positive part) integrated over the
	// braking period is the staleness that makes low FPR unsafe. It must
	// grow as the frame interval grows.
	lagFor := func(interval float64) float64 {
		p := NewPipeline(noiseless(1), 1)
		cam := frontCam()
		ego := egoAt(0)
		const decel = 6.0
		trueSpeed := func(t float64) float64 { return math.Max(0, 30-decel*t) }
		truePos := func(t float64) float64 {
			tStop := 30 / decel
			if t > tStop {
				t = tStop
			}
			return 60 + 30*t - 0.5*decel*t*t
		}
		// Warm up with two pre-braking frames so a track exists at t=0.
		p.ProcessFrame(cam, -2*interval, ego, []world.Agent{actorAt("a1", truePos(0)-30*2*interval, 0, 30)})
		p.ProcessFrame(cam, -interval, ego, []world.Agent{actorAt("a1", truePos(0)-30*interval, 0, 30)})
		next := 0.0
		sum := 0.0
		const dt = 0.01
		for tm := 0.0; tm <= 3.0; tm += dt {
			if tm >= next {
				p.ProcessFrame(cam, tm, ego, []world.Agent{actorAt("a1", truePos(tm), 0, trueSpeed(tm))})
				next += interval
			}
			wm := p.WorldModel(tm)
			if len(wm) == 1 {
				sum += math.Max(0, wm[0].Speed-trueSpeed(tm)) * dt
			}
		}
		return sum
	}
	lagFast := lagFor(0.033)
	lagSlow := lagFor(0.5)
	if !(lagSlow > lagFast) {
		t.Errorf("integrated speed overestimate at 2 FPR (%v) should exceed 30 FPR (%v)", lagSlow, lagFast)
	}
}

func TestDetectionNoiseSeeded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectProb = 0.7
	run := func(seed int64) int {
		p := NewPipeline(cfg, seed)
		cam := frontCam()
		ego := egoAt(0)
		for i := 0; i < 50; i++ {
			p.ProcessFrame(cam, float64(i)*0.1, ego, []world.Agent{actorAt("a1", 40, 0, 0)})
		}
		return p.Detections
	}
	if run(1) != run(1) {
		t.Error("same seed produced different detection counts")
	}
	if run(1) == run(2) {
		// With 50 Bernoulli(0.7) trials, two seeds almost surely differ.
		t.Log("warning: two seeds produced identical detection counts (possible but unlikely)")
	}
}

func TestStaticObstacleState(t *testing.T) {
	p := NewPipeline(noiseless(1), 1)
	cam := frontCam()
	ego := egoAt(0)
	obs := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(80, 0)}, Length: 4, Width: 1.9, Static: true}
	for i := 0; i < 5; i++ {
		p.ProcessFrame(cam, float64(i)*0.1, ego, []world.Agent{obs})
	}
	wm := p.WorldModel(0.5)
	if len(wm) != 1 {
		t.Fatal("no obstacle track")
	}
	if !wm[0].Static || wm[0].Speed > 0.3 {
		t.Errorf("static obstacle state = %+v", wm[0])
	}
}

func TestConfirmationDelayNaNWhenUnconfirmed(t *testing.T) {
	p := NewPipeline(noiseless(5), 1)
	if got := confirmationDelay(p, "ghost"); !math.IsNaN(got) {
		t.Errorf("delay for unknown track = %v, want NaN", got)
	}
	cam := frontCam()
	p.ProcessFrame(cam, 0, egoAt(0), []world.Agent{actorAt("a1", 40, 0, 0)})
	if got := confirmationDelay(p, "a1"); !math.IsNaN(got) {
		t.Errorf("delay for unconfirmed track = %v, want NaN", got)
	}
}

func TestTracksSorted(t *testing.T) {
	p := NewPipeline(noiseless(1), 1)
	cam := frontCam()
	ego := egoAt(0)
	p.ProcessFrame(cam, 0, ego, []world.Agent{
		actorAt("b", 40, 0, 0),
		actorAt("a", 50, 2, 0),
		actorAt("c", 60, -2, 0),
	})
	tracks := p.tracks
	if len(tracks) != 3 || tracks[0].ID != "a" || tracks[2].ID != "c" {
		t.Errorf("tracks order: %v, %v, %v", tracks[0].ID, tracks[1].ID, tracks[2].ID)
	}
	if tk, _ := p.findTrack("b"); tk == nil {
		t.Error("track b not found")
	}
}
