package solver

import (
	"math"
	"testing"
)

// FuzzKrylovMatchesOracle solves a small dense system through the phase
// program on a sliceSpace and asserts it reproduces the slice oracle
// bit-for-bit: solution, residual history, iteration count and error class.
// The inputs pick the system (seed, size), the flags select BiCGStab on a
// nonsymmetric perturbation instead of CG on the SPD matrix (bit 0), Jacobi
// preconditioning (bit 1), an unreachable tolerance (bit 2) and the zero
// matrix, which breaks down at once (bit 3); maxIter bounds the iteration
// and cancelAt > 0 trips the cancel hook at that poll.
func FuzzKrylovMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size, flags uint8, maxIter, cancelAt uint16) {
		n := 1 + int(size%32)
		op, diag := randomSPD(n, seed)
		rng := propRand(seed ^ 0x9e3779b97f4a7c15)
		bicg := flags&1 != 0
		if bicg {
			for i := range op.a {
				for j := range op.a[i] {
					if i != j && op.a[i][j] != 0 {
						op.a[i][j] += 0.05 * rng.float() * math.Min(diag[i], diag[j])
					}
				}
			}
		}
		if flags&8 != 0 {
			for i := range op.a {
				clear(op.a[i])
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.float()
		}
		opts := Options{Tol: 1e-10, MaxIter: 1 + int(maxIter%500)}
		if flags&2 != 0 {
			opts.PrecondDiag = diag
		}
		if flags&4 != 0 {
			opts.Tol = 1e-300
		}
		solve, oracle := CG, oracleCG
		if bicg {
			solve, oracle = BiCGStab, oracleBiCGStab
		}
		run := func(s func(Operator, []float64, []float64, Options) (*Stats, error)) (*Stats, error, []float64) {
			o := opts
			if cancelAt > 0 {
				o.Cancel = cancelAfter(int(cancelAt % 64))
			}
			x := make([]float64, n)
			st, err := s(op, x, b, o)
			return st, err, x
		}
		stO, errO, xo := run(oracle)
		st, err, x := run(solve)
		sameSolve(t, "fuzz", stO, errO, xo, st, err, x)
	})
}
