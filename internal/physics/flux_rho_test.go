package physics

import (
	"math"
	"os/exec"
	"strings"
	"testing"
)

// branchyFaceFluxRho is the oracle for FaceFluxRho: Eq. 3a/3b/4 written
// with the upwind select as an if/else on ΔΦ > 0, the form FaceFlux had
// before the select became a bit mask. The two must agree bit for bit on
// every input, NaN payloads and signed zeros included.
func branchyFaceFluxRho(f Fluid, trans, pK, pL, rhoK, rhoL, zK, zL float64) float64 {
	rhoAvg := 0.5 * (rhoK + rhoL)
	dPhi := pL - pK + rhoAvg*f.Gravity*(zL-zK)
	var lambda float64
	if dPhi > 0 {
		lambda = rhoK / f.Viscosity
	} else {
		lambda = rhoL / f.Viscosity
	}
	return trans * lambda * dPhi
}

// checkFaceFluxRho asserts FaceFluxRho, and FaceFlux through it, match the
// branchy oracle bit for bit under both density models.
func checkFaceFluxRho(t *testing.T, trans, pK, pL, rhoK, rhoL, zK, zL float64) {
	t.Helper()
	for _, model := range []DensityModel{DensityExponential, DensityLinear} {
		f := testFluid().WithModel(model)
		got := f.FaceFluxRho(trans, pK, pL, rhoK, rhoL, zK, zL)
		want := branchyFaceFluxRho(f, trans, pK, pL, rhoK, rhoL, zK, zL)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: FaceFluxRho(%v, %v, %v, %v, %v, %v, %v) = %v (%#x), branchy form %v (%#x)",
				model, trans, pK, pL, rhoK, rhoL, zK, zL, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		got = f.FaceFlux(trans, pK, pL, zK, zL)
		want = branchyFaceFluxRho(f, trans, pK, pL, f.Density(pK), f.Density(pL), zK, zL)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: FaceFlux(%v, %v, %v, %v, %v) = %v (%#x), branchy form %v (%#x)",
				model, trans, pK, pL, zK, zL, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// bigRho is a density whose mobility ρ/μ overflows to +Inf while ρ·g stays
// finite.
const bigRho = math.MaxFloat64 / 16

func TestFaceFluxRhoMatchesBranchySelect(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	const sub = 5e-324 // smallest subnormal
	// rhoK = bigRho makes a case whose ΔΦ is zero read NaN (Inf·0) if it
	// picks K and 0 if it picks L — the select is visible in the result.
	cases := []struct {
		name                              string
		trans, pK, pL, rhoK, rhoL, zK, zL float64
	}{
		{"K upwind", 1e-12, 1.9e7, 2.0e7, 690, 710, 1500, 1500},
		{"L upwind", 1e-12, 2.0e7, 1.9e7, 710, 690, 1500, 1500},
		{"gravity drives K upwind", 1e-12, 2e7, 2e7, 700, 700, -1510, -1500},
		{"ΔΦ = +0", 1e-12, 2e7, 2e7, bigRho, 700, 1500, 1500},
		{"ΔΦ = −0", 1e-12, 0, negZero, bigRho, 700, 0, negZero},
		{"ΔΦ subnormal positive", 1e-12, 0, sub, bigRho, 700, 0, 0},
		{"ΔΦ subnormal negative", 1e-12, sub, 0, 700, bigRho, 0, 0},
		{"ΔΦ = +Inf", 1e-12, 0, inf, 690, 710, 0, 0},
		{"ΔΦ = −Inf", 1e-12, inf, 0, 690, 710, 0, 0},
		{"ΔΦ NaN from pressure", 1e-12, nan, 2e7, 690, 710, 0, 0},
		{"ΔΦ NaN from Inf−Inf", 1e-12, inf, inf, 690, 710, 0, 0},
		{"ΔΦ NaN from density", 1e-12, 2e7, 2e7, nan, 700, 0, 1},
		{"ρ_K NaN, K upwind", 1e-12, 1.9e7, 2.0e7, nan, 700, 0, 0},
		{"ρ_L NaN, L upwind", 1e-12, 2.0e7, 1.9e7, 700, nan, 0, 0},
		{"ρ_K Inf", 1e-12, 1.9e7, 2.0e7, inf, 700, 0, 0},
		{"subnormal ρ and Υ", sub, 1.9e7, 2.0e7, sub, 2 * sub, 0, 0},
		{"subnormal elevations", 1e-12, 2e7, 2e7, 700, 710, sub, 0},
		{"negative transmissibility", -1e-12, 1.9e7, 2.0e7, 690, 710, 0, 0},
		{"NaN transmissibility", nan, 1.9e7, 2.0e7, 690, 710, 0, 0},
		{"negative densities", 1e-12, 1.9e7, 2.0e7, -690, -710, 10, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFaceFluxRho(t, c.trans, c.pK, c.pL, c.rhoK, c.rhoL, c.zK, c.zL)
		})
	}
}

// TestFaceFluxRhoSelectIsVisible pins that the ±0 table cases really reach
// the L side: with the K side chosen their flux would be NaN.
func TestFaceFluxRhoSelectIsVisible(t *testing.T) {
	f := testFluid()
	negZero := math.Copysign(0, -1)
	if got := f.FaceFluxRho(1e-12, 2e7, 2e7, bigRho, 700, 1500, 1500); got != 0 || math.Signbit(got) {
		t.Errorf("ΔΦ = +0: flux %v, want +0 (L upwind)", got)
	}
	if got := f.FaceFluxRho(1e-12, 0, negZero, bigRho, 700, 0, negZero); got != 0 || !math.Signbit(got) {
		t.Errorf("ΔΦ = −0: flux %v, want −0 (L upwind)", got)
	}
	if got := f.FaceFluxRho(1e-12, 0, 5e-324, bigRho, 700, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("ΔΦ subnormal positive: flux %v, want +Inf (K upwind)", got)
	}
}

// FuzzFaceFluxRho explores arbitrary operands, non-finite ones included,
// for any divergence between the bit-mask select and the branchy oracle.
func FuzzFaceFluxRho(f *testing.F) {
	f.Add(1e-12, 1.9e7, 2.0e7, 690.0, 710.0, 1500.0, 1510.0)
	f.Add(1e-12, 2e7, 2e7, bigRho, 700.0, 1500.0, 1500.0)
	f.Add(1e-12, 0.0, math.Copysign(0, -1), 700.0, 710.0, 0.0, math.Copysign(0, -1))
	f.Add(5e-324, 0.0, 5e-324, math.NaN(), math.Inf(1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, trans, pK, pL, rhoK, rhoL, zK, zL float64) {
		checkFaceFluxRho(t, trans, pK, pL, rhoK, rhoL, zK, zL)
	})
}

// TestFaceFluxRhoInlines guards the property the partitioned flux kernel's
// speed rests on: FaceFluxRho stays within the compiler's inlining budget,
// so its inner loop carries no call.
func TestFaceFluxRhoInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with -gcflags=-m")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline Fluid.FaceFluxRho") {
		t.Errorf("Fluid.FaceFluxRho no longer inlines; compiler says:\n%s", out)
	}
}
