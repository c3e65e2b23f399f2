package physics

import (
	"math"
	"math/bits"
)

// FaceFlux evaluates the TPFA flux F_KL (Eq. 3a) across one face in float64.
// Inputs are the transmissibility Υ (already geometric+permeability, see
// internal/mesh), the cell pressures, and the cell-center elevations. The
// returned flux is positive when mass flows from L into K under the paper's
// sign convention (F is accumulated into K's residual as-is; antisymmetry
// F_KL = −F_LK holds by construction).
func (f Fluid) FaceFlux(trans, pK, pL, zK, zL float64) float64 {
	return f.FaceFluxRho(trans, pK, pL, f.Density(pK), f.Density(pL), zK, zL)
}

// FaceFluxRho is FaceFlux with both cell densities supplied by the caller —
// the one arithmetic definition of Eq. 3a/3b/4, for kernels that evaluate
// ρ once per cell instead of twice per half-face. Given rhoK = Density(pK)
// and rhoL = Density(pL) it returns FaceFlux's value bit for bit.
//
// The upwind select of Eq. 4 (ρ_K when ΔΦ > 0, else ρ_L) is a bit mask,
// not a branch: on a noisy pressure field the sign of ΔΦ is a coin flip
// per half-face, which a branch predictor cannot learn.
func (f Fluid) FaceFluxRho(trans, pK, pL, rhoK, rhoL, zK, zL float64) float64 {
	dPhi := pL - pK + 0.5*(rhoK+rhoL)*f.Gravity*(zL-zK)
	// ΔΦ > 0 exactly when its bit pattern b is in [1, +Inf]: then b−1 is
	// below +Inf's pattern, while +0 (b−1 wraps), −0, negatives and NaNs
	// are not. The borrow gt of that unsigned compare is 1 iff ΔΦ > 0, so
	// −gt is all ones and gt−1 all zeros exactly when ρ_K is upwind.
	_, gt := bits.Sub64(math.Float64bits(dPhi)-1, posInfBits, 0)
	rhoUp := math.Float64frombits(math.Float64bits(rhoK)&-gt | math.Float64bits(rhoL)&(gt-1))
	return trans * (rhoUp / f.Viscosity) * dPhi
}

// posInfBits is the bit pattern of +Inf, the largest non-NaN float64 bit
// pattern with a clear sign bit.
const posInfBits = 0x7FF0000000000000

// PotentialDifference evaluates ΔΦ_KL (Eq. 3b) in float64.
func (f Fluid) PotentialDifference(pK, pL, zK, zL float64) float64 {
	rhoAvg := 0.5 * (f.Density(pK) + f.Density(pL))
	return pL - pK + rhoAvg*f.Gravity*(zL-zK)
}

// UpwindMobility evaluates λ_upw (Eq. 4) given a precomputed ΔΦ.
func (f Fluid) UpwindMobility(dPhi, pK, pL float64) float64 {
	if dPhi > 0 {
		return f.Density(pK) / f.Viscosity
	}
	return f.Density(pL) / f.Viscosity
}

// FaceFlux32 is the single-precision TPFA face flux with the *linearized*
// density, written as the exact operation sequence of the dataflow kernel
// (DESIGN.md §4) so that the scalar host value and the vectorized DSD value
// agree bit-for-bit. gzK/gzL are the g-premultiplied elevations (g·z) that
// the PEs exchange as "gravity coefficients".
func FaceFlux32(c Float32, trans, pK, pL, gzK, gzL float32) float32 {
	dp := pL - pK            // FSUB
	dgz := gzL - gzK         // FSUB
	rK := c.AHat * pK        // FMUL
	rL := c.AHat * pL        // FMUL
	s := rK + rL             // FADD
	rhoAvg := 0.5*s + c.CHat // FMA (single rounding not modeled; see note below)
	gt := rhoAvg * dgz       // FMUL
	ng := -gt                // FNEG
	dPhi := dp - ng          // FSUB
	rup := rL                // SELGT (predicated move)
	if dPhi > 0 {
		rup = rK
	}
	rhoUp := rup - c.NegC     // FSUB
	lambda := rhoUp * c.InvMu // FMUL
	t1 := trans * dPhi        // FMUL
	return t1 * lambda        // FMUL (accumulate-store performed by the caller)
}

// Note on FMA rounding: the CS-2 FMA fuses the multiply-add with a single
// rounding. Go's float32 arithmetic rounds each step. The dataflow engines and
// this host mirror both use the two-rounding form, so engines agree exactly
// with each other; the float64 reference bounds the model error instead.

// FaceFlux32Exp is the single-precision flux with the exponential density
// (Eq. 5), matching what the GPU-style kernels compute. It exists so the GPU
// kernels and their tests share one definition.
func FaceFlux32Exp(rhoRef, pRef, cf, g, invMu, trans, pK, pL, zK, zL float32) float32 {
	rhoK := rhoRef * expf(cf*(pK-pRef))
	rhoL := rhoRef * expf(cf*(pL-pRef))
	rhoAvg := 0.5 * (rhoK + rhoL)
	dPhi := pL - pK + rhoAvg*g*(zL-zK)
	var lambda float32
	if dPhi > 0 {
		lambda = rhoK * invMu
	} else {
		lambda = rhoL * invMu
	}
	return trans * lambda * dPhi
}

// expf is float32 exp via float64 math, the same lowering a GPU's expf would
// perform at full precision.
func expf(x float32) float32 { return float32(math.Exp(float64(x))) }

// FlopsPerFaceLinear is the floating-point operation count of one linearized
// face-flux evaluation (FMA counted as 2 FLOPs), as in Table 4.
const FlopsPerFaceLinear = 14

// ExpFlopCost is the FLOP-equivalent cost assigned to one expf evaluation in
// the GPU kernels' accounting (SFU range reduction + polynomial, profiler
// convention). With this value the reference GPU kernel measures 28 FLOPs
// per face / 280 per cell over 132 bytes of word-level traffic — an
// arithmetic intensity of 2.12 FLOPs/Byte, matching the paper's reported
// 2.11 (§7.3).
const ExpFlopCost = 6

// FlopsPerFaceExp is the operation count of one exponential face-flux
// evaluation as the GPU kernels execute it (density evaluated per side with
// g·z precombined elevations, upwind select counted as one predicated op).
const FlopsPerFaceExp = 16 + 2*ExpFlopCost
