// Package units provides unit conversions and physical constants used
// throughout the repository. All internal computation is in SI units
// (meters, seconds, radians); conversions to mph appear only at API
// edges, mirroring the paper's presentation (scenario speeds are quoted
// in mph).
package units

import "math"

// Conversion factors between customary traffic units and SI.
const (
	// MetersPerMile is the exact international-mile definition.
	MetersPerMile = 1609.344
	// SecondsPerHour converts per-hour rates to per-second rates.
	SecondsPerHour = 3600.0
)

// MPHToMPS converts miles per hour to meters per second.
func MPHToMPS(mph float64) float64 { return mph * MetersPerMile / SecondsPerHour }

// MPSToMPH converts meters per second to miles per hour.
func MPSToMPH(mps float64) float64 { return mps * SecondsPerHour / MetersPerMile }

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180.0 }

// NormalizeAngle wraps an angle into (-π, π].
func NormalizeAngle(rad float64) float64 {
	for rad > math.Pi {
		rad -= 2 * math.Pi
	}
	for rad <= -math.Pi {
		rad += 2 * math.Pi
	}
	return rad
}
