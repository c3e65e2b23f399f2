package solver

import (
	"strings"
	"testing"
)

func TestPrecondKindsLadder(t *testing.T) {
	kinds := PrecondKinds()
	want := []PrecondKind{PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG}
	if len(kinds) != len(want) {
		t.Fatalf("PrecondKinds() = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("PrecondKinds()[%d] = %q, want %q", i, kinds[i], want[i])
		}
		if !kinds[i].valid() {
			t.Errorf("%q does not validate", kinds[i])
		}
	}
	if !PrecondDefault.valid() {
		t.Error("the default kind does not validate")
	}
	if PrecondKind("nonsense").valid() {
		t.Error("an unknown kind validates")
	}
	if PrecondJacobi.operatorBuilt() || PrecondDefault.operatorBuilt() {
		t.Error("jacobi/default must not require operator cooperation")
	}
	for _, k := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		if !k.operatorBuilt() {
			t.Errorf("%q must be operator-built", k)
		}
	}
}

func TestPrecondKindValidationOnSlicePath(t *testing.T) {
	// A plain operator (run on a sliceSpace): an unknown kind is rejected,
	// an operator-built kind on an operator without PrecondFactory is
	// rejected, jacobi demands a diagonal, and an explicit Precond closure
	// wins over the kind.
	a := spdTest(8)
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(a, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(a, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "PrecondFactory") {
			t.Errorf("%s on a factory-less operator: err = %v, want a PrecondFactory error", kind, err)
		}
	}
	if _, err := CG(a, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	// An explicit closure short-circuits kind resolution entirely.
	applied := false
	pre := func(z, r []float64) { applied = true; copy(z, r) }
	if _, err := CG(a, x, b, Options{PrecondKind: PrecondAMG, Precond: pre}); err != nil {
		t.Fatalf("explicit Precond with a ladder kind: %v", err)
	}
	if !applied {
		t.Error("explicit Precond closure never ran")
	}
}

func TestPrecondKindValidationOnResidentPath(t *testing.T) {
	// The resident path: a VectorSpace without the ResidentPrecond extension
	// cannot run operator-built rungs; jacobi still demands a diagonal.
	op := spdTest(8)
	d := residentOnly{newSliceSpace(op)}
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(d, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(d, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "ResidentPrecond") {
			t.Errorf("%s on a plain VectorSpace: err = %v, want a ResidentPrecond error", kind, err)
		}
	}
	if _, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	if _, err := BiCGStab(d, x, b, Options{PrecondKind: PrecondAMG}); err == nil {
		t.Error("BiCGStab resident path accepted an uninstallable rung")
	}
	// The supported kinds still solve.
	st, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi, PrecondDiag: diagOf(op)})
	if err != nil || !st.Converged {
		t.Fatalf("resident jacobi-by-kind failed: %v", err)
	}
}
