package solver

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// sameSolve fails unless two solves agree bit-for-bit: error class
// (Breakdown, NotConverged, Cancelled or none), iterations, convergence,
// residual history and solution.
func sameSolve(t *testing.T, name string, stA *Stats, errA error, xA []float64, stB *Stats, errB error, xB []float64) {
	t.Helper()
	for _, sentinel := range []error{ErrBreakdown, ErrNotConverged, ErrCancelled} {
		if errors.Is(errA, sentinel) != errors.Is(errB, sentinel) {
			t.Fatalf("%s: error class differs: %v vs %v", name, errA, errB)
		}
	}
	if (errA == nil) != (errB == nil) || (stA == nil) != (stB == nil) {
		t.Fatalf("%s: outcome differs: %v vs %v", name, errA, errB)
	}
	if stA != nil {
		if stA.Iterations != stB.Iterations || stA.Converged != stB.Converged {
			t.Fatalf("%s: %d its (conv %v) vs %d its (conv %v)",
				name, stA.Iterations, stA.Converged, stB.Iterations, stB.Converged)
		}
		if len(stA.History) != len(stB.History) {
			t.Fatalf("%s: history length %d vs %d", name, len(stA.History), len(stB.History))
		}
		for k := range stA.History {
			if math.Float64bits(stA.History[k]) != math.Float64bits(stB.History[k]) {
				t.Fatalf("%s: history[%d] differs: %g vs %g", name, k, stA.History[k], stB.History[k])
			}
		}
	}
	for i := range xA {
		if math.Float64bits(xA[i]) != math.Float64bits(xB[i]) {
			t.Fatalf("%s: x[%d] differs: %g vs %g", name, i, xA[i], xB[i])
		}
	}
}

// residentOnly hides every extension of a VectorSpace (ResidentPrecond in
// particular), the minimal operator a resident solve accepts.
type residentOnly struct{ VectorSpace }

// diagOf extracts the matrix diagonal of a dense operator.
func diagOf(d *denseOp) []float64 {
	diag := make([]float64, d.Size())
	for i := range d.a {
		diag[i] = d.a[i][i]
	}
	return diag
}

func TestResidentCGMatchesSlicePathBitExact(t *testing.T) {
	// The phase program over global slices must reproduce the slice CG
	// recurrence (the oracle) expression for expression — iterations,
	// histories, solution — with and without Jacobi preconditioning.
	for _, seed := range []uint64{1, 7, 42} {
		op, b := randomSPD(24, seed)
		for _, jacobi := range []bool{false, true} {
			var diag []float64
			if jacobi {
				diag = diagOf(op)
			}
			opts := Options{Tol: 1e-10, MaxIter: 300, PrecondDiag: diag}
			xo := make([]float64, op.Size())
			stO, errO := oracleCG(op, xo, b, opts)
			x := make([]float64, op.Size())
			st, err := CG(op, x, b, opts)
			if err != nil {
				t.Fatalf("seed %d jacobi=%v: %v", seed, jacobi, err)
			}
			sameSolve(t, "cg", stO, errO, xo, st, err, x)
		}
	}
}

func TestResidentBiCGStabMatchesSlicePathBitExact(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		op, b := randomSPD(20, seed)
		// Nonsymmetric perturbation exercises the full BiCGStab recurrence.
		op.a[1][2] += 0.25
		op.a[5][0] -= 0.125
		opts := Options{Tol: 1e-10, MaxIter: 400, PrecondDiag: diagOf(op)}
		xo := make([]float64, op.Size())
		stO, errO := oracleBiCGStab(op, xo, b, opts)
		x := make([]float64, op.Size())
		st, err := BiCGStab(op, x, b, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameSolve(t, "bicgstab", stO, errO, xo, st, err, x)
	}
}

func TestResidentZeroRHS(t *testing.T) {
	// The zero-b early exit zeroes x, on a plain operator and on a
	// VectorSpace alike.
	op, _ := randomSPD(8, 5)
	for _, a := range []Operator{op, residentOnly{newSliceSpace(op)}} {
		x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		st, err := CG(a, x, make([]float64, 8), Options{})
		if err != nil || !st.Converged {
			t.Fatalf("%T zero RHS: %v %+v", a, err, st)
		}
		for i, v := range x {
			if v != 0 {
				t.Fatalf("%T: x[%d] = %g after zero-RHS solve", a, i, v)
			}
		}
	}
}

func TestPrecondClosure(t *testing.T) {
	// An Options.Precond closure works on global slices: a plain operator
	// applies it exactly as the oracle does, and a VectorSpace operator,
	// which keeps its vectors in its own layout, rejects it with a pointer
	// to PrecondDiag/PrecondKind.
	op, b := randomSPD(16, 9)
	inv := diagOf(op)
	for i := range inv {
		inv[i] = 1 / inv[i]
	}
	called := false
	pre := func(z, r []float64) {
		called = true
		for i := range z {
			z[i] = inv[i] * r[i]
		}
	}
	opts := Options{Tol: 1e-10, MaxIter: 300, Precond: pre}
	x := make([]float64, op.Size())
	st, err := CG(op, x, b, opts)
	if err != nil || !st.Converged {
		t.Fatalf("solve failed: %v %+v", err, st)
	}
	if !called {
		t.Error("Precond closure never invoked")
	}
	xo := make([]float64, op.Size())
	stO, errO := oracleCG(op, xo, b, opts)
	sameSolve(t, "closure", stO, errO, xo, st, err, x)

	for _, solve := range []func(Operator, []float64, []float64, Options) (*Stats, error){CG, BiCGStab} {
		_, err := solve(residentOnly{newSliceSpace(op)}, make([]float64, op.Size()), b, opts)
		if err == nil || !strings.Contains(err.Error(), "PrecondDiag") {
			t.Errorf("closure on a VectorSpace: err = %v, want a PrecondDiag pointer", err)
		}
	}
}

func TestResidentErrorPathsMirrorSlicePath(t *testing.T) {
	// The exits that are not plain convergence must behave as the oracle's
	// do: iteration exhaustion (best iterate still stored to x), Krylov
	// breakdown, and a rejected preconditioner diagonal.
	t.Run("not converged", func(t *testing.T) {
		op, b := randomSPD(24, 21)
		opts := Options{Tol: 1e-14, MaxIter: 3}
		xo := make([]float64, op.Size())
		stO, errO := oracleCG(op, xo, b, opts)
		x := make([]float64, op.Size())
		st, err := CG(op, x, b, opts)
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("want ErrNotConverged, got %v", err)
		}
		sameSolve(t, "cg", stO, errO, xo, st, err, x)
		xo = make([]float64, op.Size())
		stO, errO = oracleBiCGStab(op, xo, b, opts)
		x = make([]float64, op.Size())
		st, err = BiCGStab(op, x, b, opts)
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("BiCGStab: want ErrNotConverged, got %v", err)
		}
		sameSolve(t, "bicgstab", stO, errO, xo, st, err, x)
	})
	t.Run("breakdown", func(t *testing.T) {
		// The zero matrix gives pᵀAp = 0 on the first CG iteration and
		// r̂ᵀv = 0 in BiCGStab.
		n := 6
		zeroA := &denseOp{a: make([][]float64, n)}
		for i := range zeroA.a {
			zeroA.a[i] = make([]float64, n)
		}
		b := make([]float64, n)
		b[0] = 1
		if _, err := CG(zeroA, make([]float64, n), b, Options{}); !errors.Is(err, ErrBreakdown) {
			t.Fatalf("CG on zero matrix: want ErrBreakdown, got %v", err)
		}
		if _, err := BiCGStab(zeroA, make([]float64, n), b, Options{}); !errors.Is(err, ErrBreakdown) {
			t.Fatalf("BiCGStab on zero matrix: want ErrBreakdown, got %v", err)
		}
	})
	t.Run("bad diagonal", func(t *testing.T) {
		op, b := randomSPD(8, 33)
		for _, bad := range [][]float64{make([]float64, op.Size()), make([]float64, 3)} {
			for i := range bad {
				bad[i] = float64(i % 2) // zeros at even indices
			}
			opts := Options{PrecondDiag: bad}
			if _, err := CG(op, make([]float64, op.Size()), b, opts); err == nil {
				t.Errorf("CG accepted the bad preconditioner diagonal %v", bad)
			}
			if _, err := BiCGStab(op, make([]float64, op.Size()), b, opts); err == nil {
				t.Errorf("BiCGStab accepted the bad preconditioner diagonal %v", bad)
			}
		}
	})
	t.Run("bicgstab early exit", func(t *testing.T) {
		// On the identity matrix BiCGStab converges at the ‖s‖ check of the
		// first iteration — the half-step exit.
		n := 6
		eye := &denseOp{a: make([][]float64, n)}
		for i := range eye.a {
			eye.a[i] = make([]float64, n)
			eye.a[i][i] = 1
		}
		b := []float64{1, -2, 3, 0.5, -0.25, 4}
		xo := make([]float64, n)
		stO, errO := oracleBiCGStab(eye, xo, b, Options{})
		x := make([]float64, n)
		st, err := BiCGStab(eye, x, b, Options{})
		if err != nil || !st.Converged || st.Iterations != 1 {
			t.Fatalf("identity solve: %v %+v", err, st)
		}
		sameSolve(t, "identity", stO, errO, xo, st, err, x)
	})
}

func TestResidentSolveRespectsInitialGuess(t *testing.T) {
	// A warm start must match the oracle (the preamble applies A to the
	// loaded x, not to zero).
	op, b := randomSPD(16, 13)
	guess := make([]float64, op.Size())
	for i := range guess {
		guess[i] = math.Sin(float64(i))
	}
	opts := Options{Tol: 1e-10, MaxIter: 300}
	xo := append([]float64(nil), guess...)
	stO, errO := oracleCG(op, xo, b, opts)
	x := append([]float64(nil), guess...)
	st, err := CG(op, x, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "warm start", stO, errO, xo, st, err, x)
}
