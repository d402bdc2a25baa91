// Package compute reproduces the paper's Figure 1: the expected
// throughput demand of state-of-the-art camera perception versus the
// throughput offered by in-vehicle SoCs. The paper estimates TOPS
// assuming the MLPerf SSD-Large object-detection model runs on
// 1200x1200 frames from all cameras at 30 FPR, inflated by 20% for the
// additional camera models (lane detection, free space, occlusion) that
// reuse extracted features.
package compute

import "fmt"

// PerceptionModel describes one per-frame perception workload.
type PerceptionModel struct {
	Name        string
	OpsPerFrame float64 // operations per processed frame
}

// SSDLarge is the MLPerf SSD-Large (SSD-ResNet34) single-stream
// detection workload at 1200x1200 input, ~433 GFLOPs per frame.
func SSDLarge() PerceptionModel {
	return PerceptionModel{Name: "ssd-large-1200", OpsPerFrame: 433e9}
}

// SoC describes an in-vehicle computer's advertised inference
// throughput.
type SoC struct {
	Name string
	TOPS float64
}

// Xavier is the NVIDIA DRIVE AGX Xavier SoC (~32 INT8 TOPS).
func Xavier() SoC { return SoC{Name: "drive-agx-xavier", TOPS: 32} }

// Orin is the NVIDIA Jetson/DRIVE AGX Orin SoC (~275 INT8 TOPS).
func Orin() SoC { return SoC{Name: "jetson-agx-orin", TOPS: 275} }

// DemandConfig parameterizes the Figure-1 demand curve.
type DemandConfig struct {
	Model          PerceptionModel
	Cameras        int
	FPR            float64 // frames per second per camera
	ExtraModelFrac float64 // additional camera-model work (paper: 0.20)
}

// DefaultDemand is the paper's configuration: 12 cameras, 30 FPR,
// SSD-Large, +20%.
func DefaultDemand() DemandConfig {
	return DemandConfig{Model: SSDLarge(), Cameras: 12, FPR: 30, ExtraModelFrac: 0.20}
}

// TOPS returns the aggregate demand in tera-operations per second.
func (d DemandConfig) TOPS() float64 {
	return d.Model.OpsPerFrame * float64(d.Cameras) * d.FPR * (1 + d.ExtraModelFrac) / 1e12
}

// MaxCameras returns the largest camera count the SoC can serve at the
// configured per-camera rate.
func (d DemandConfig) MaxCameras(s SoC) int {
	per := d.Model.OpsPerFrame * d.FPR * (1 + d.ExtraModelFrac) / 1e12
	if per <= 0 {
		return 0
	}
	return int(s.TOPS / per)
}

// CurvePoint is one camera-count sample of the Figure-1 demand curve.
type CurvePoint struct {
	Cameras int
	TOPS    float64
}

// DemandCurve returns demand for camera counts 1..maxCameras.
func (d DemandConfig) DemandCurve(maxCameras int) []CurvePoint {
	out := make([]CurvePoint, 0, maxCameras)
	for n := 1; n <= maxCameras; n++ {
		c := d
		c.Cameras = n
		out = append(out, CurvePoint{Cameras: n, TOPS: c.TOPS()})
	}
	return out
}

// Validate reports configuration errors.
func (d DemandConfig) Validate() error {
	if d.Model.OpsPerFrame <= 0 {
		return fmt.Errorf("compute: non-positive ops per frame")
	}
	if d.Cameras < 0 {
		return fmt.Errorf("compute: negative camera count")
	}
	if d.FPR < 0 {
		return fmt.Errorf("compute: negative FPR")
	}
	if d.ExtraModelFrac < 0 {
		return fmt.Errorf("compute: negative extra-model fraction")
	}
	return nil
}
