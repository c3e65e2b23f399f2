package solver

import (
	"errors"
	"math"
	"testing"
)

// cancelAfter returns a cancel hook that trips once it has been polled n
// times — i.e. it allows n-1 full iterations, then stops the solve at the
// next iteration boundary.
func cancelAfter(n int) func() bool {
	polls := 0
	return func() bool {
		polls++
		return polls > n
	}
}

// hardRHS is a right-hand side CG needs many iterations for on spdTest.
func hardRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// TestCancelStopsAtIterationBoundary pins the cancellation contract on both
// solvers and on their slice oracles: a solve cancelled after k iterations
// returns ErrCancelled, reports exactly k completed iterations, and leaves
// in x the bit-identical iterate a MaxIter=k run would have produced — proof
// that cancellation lands between iterations and never perturbs completed
// arithmetic.
func TestCancelStopsAtIterationBoundary(t *testing.T) {
	const n, k = 60, 3
	run := func(name string, solve func(a Operator, x, b []float64, o Options) (*Stats, error), a Operator) {
		t.Run(name, func(t *testing.T) {
			b := hardRHS(n)
			x := make([]float64, n)
			st, err := solve(a, x, b, Options{Tol: 1e-14, Cancel: cancelAfter(k)})
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("want ErrCancelled, got %v", err)
			}
			if st.Iterations != k {
				t.Fatalf("iterations = %d, want %d", st.Iterations, k)
			}
			if len(st.History) != k {
				t.Fatalf("history length = %d, want %d", len(st.History), k)
			}
			// Reference: the same solve truncated by MaxIter instead.
			ref := make([]float64, n)
			refSt, refErr := solve(a, ref, b, Options{Tol: 1e-14, MaxIter: k})
			if !errors.Is(refErr, ErrNotConverged) {
				t.Fatalf("reference run: want ErrNotConverged, got %v", refErr)
			}
			for i := range x {
				if x[i] != ref[i] {
					t.Fatalf("x[%d] = %v, MaxIter-truncated reference %v", i, x[i], ref[i])
				}
			}
			if st.Residual != refSt.Residual {
				t.Fatalf("residual %v, reference %v", st.Residual, refSt.Residual)
			}
		})
	}
	run("cg slice", oracleCG, spdTest(n))
	run("cg resident", CG, spdTest(n))
	run("bicgstab slice", oracleBiCGStab, spdTest(n))
	run("bicgstab resident", BiCGStab, spdTest(n))
}

// TestCancelBeforeFirstIteration: a hook that is already tripped stops the
// solve with zero iterations and an untouched initial guess.
func TestCancelBeforeFirstIteration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		solve func(a Operator, x, b []float64, o Options) (*Stats, error)
		a     Operator
	}{
		{"cg slice", oracleCG, spdTest(20)},
		{"cg resident", CG, spdTest(20)},
		{"bicgstab slice", oracleBiCGStab, spdTest(20)},
		{"bicgstab resident", BiCGStab, spdTest(20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := make([]float64, 20)
			for i := range x {
				x[i] = float64(i)
			}
			before := append([]float64(nil), x...)
			st, err := tc.solve(tc.a, x, hardRHS(20), Options{Cancel: func() bool { return true }})
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("want ErrCancelled, got %v", err)
			}
			if st.Iterations != 0 {
				t.Fatalf("iterations = %d, want 0", st.Iterations)
			}
			for i := range x {
				if x[i] != before[i] {
					t.Fatalf("x[%d] changed: %v -> %v", i, before[i], x[i])
				}
			}
		})
	}
}

// TestCancelNeverTrippedIsInvisible: a hook that always says "keep going"
// must not change a solve's result in any bit.
func TestCancelNeverTrippedIsInvisible(t *testing.T) {
	a := spdTest(50)
	b := hardRHS(50)
	plain := make([]float64, 50)
	hooked := make([]float64, 50)
	stPlain, err1 := CG(a, plain, b, Options{Tol: 1e-10})
	stHooked, err2 := CG(a, hooked, b, Options{Tol: 1e-10, Cancel: func() bool { return false }})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if stPlain.Iterations != stHooked.Iterations {
		t.Fatalf("iterations diverged: %d vs %d", stPlain.Iterations, stHooked.Iterations)
	}
	for i := range plain {
		if plain[i] != hooked[i] || math.IsNaN(plain[i]) {
			t.Fatalf("x[%d] diverged: %v vs %v", i, plain[i], hooked[i])
		}
	}
}
