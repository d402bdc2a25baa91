package core

import "fmt"

// Uncertainty extends the Zhuyi model with perception uncertainty — the
// first of the paper's §5 future-work directions: "extending the Zhuyi
// model to consider perception uncertainty to facilitate trading-off
// perception model accuracy for performance."
//
// A cheaper (quantized/pruned) perception model detects objects with a
// larger positional error and a longer effective confirmation, but
// sustains a higher frame rate on the same silicon. Uncertainty folds
// the accuracy side of that trade into the latency search:
//
//   - PosSigma shrinks the usable gap: the search subtracts
//     SigmaMargin·PosSigma from s_n (a k-sigma localization margin);
//   - SpeedSigma tightens the velocity constraint the same way;
//   - ConfirmFactor scales the confirmation depth K (a less accurate
//     detector needs more frames to confirm reliably).
type Uncertainty struct {
	PosSigma      float64 // 1-sigma longitudinal position error, m
	SpeedSigma    float64 // 1-sigma actor speed error, m/s
	SigmaMargin   float64 // how many sigmas of margin to hold (default 2)
	ConfirmFactor float64 // multiplier on K (default 1)
}

// Validate reports configuration errors.
func (u Uncertainty) Validate() error {
	if u.PosSigma < 0 || u.SpeedSigma < 0 {
		return fmt.Errorf("core: negative uncertainty sigma")
	}
	if u.SigmaMargin < 0 {
		return fmt.Errorf("core: negative sigma margin")
	}
	if u.ConfirmFactor < 0 {
		return fmt.Errorf("core: negative confirm factor")
	}
	return nil
}

// Apply returns parameters adjusted for the uncertainty: the lateral
// threat margin and the distance/velocity constraints absorb the
// localization error, and K grows with the confirmation factor. The
// returned Params remain usable with every estimator entry point.
func (u Uncertainty) Apply(p Params) Params {
	margin := u.SigmaMargin
	if margin == 0 {
		margin = 2
	}
	// The distance constraint d_e1+d_e2 <= C1·s_n tightens by shrinking
	// the effective C1: with s_n reduced by margin·PosSigma at a typical
	// engagement range, folding the reduction into the conservatism
	// factor keeps the search structure unchanged. We instead expose it
	// exactly through the dedicated fields below.
	out := p
	out.DistanceMargin = margin * u.PosSigma
	out.SpeedMargin = margin * u.SpeedSigma
	if u.ConfirmFactor > 0 {
		k := float64(p.K) * u.ConfirmFactor
		out.K = int(k + 0.5)
	}
	out.LateralMargin = p.LateralMargin + margin*u.PosSigma/2
	return out
}
