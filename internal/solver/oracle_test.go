package solver

import (
	"fmt"
	"math"
)

// This file keeps the slice-based CG and BiCGStab recurrences that solved
// plain operators before every solve went through the phase programs
// (cgProgram, biProgram) on a VectorSpace. They are an independent test
// oracle: the bit-exactness, error-path, cancel and fuzz tests compare the
// one production recurrence against them.

// dotOf routes an inner product through the operator's own reduction when it
// provides one.
func dotOf(a Operator, x, y []float64) float64 {
	if r, ok := a.(Reducer); ok {
		return r.Dot(x, y)
	}
	return dot(x, y)
}

// normOf is the Euclidean norm through the operator's reduction.
func normOf(a Operator, x []float64) float64 { return math.Sqrt(dotOf(a, x, x)) }

func applyPrecond(opts Options, z, r []float64) {
	if opts.Precond != nil {
		opts.Precond(z, r)
		return
	}
	copy(z, r)
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// oracleResolvePrecond materializes Options.PrecondKind/PrecondDiag into the
// slice-path closure when no explicit closure was given. Operator-built
// rungs are delegated to the operator's PrecondFactory.
func oracleResolvePrecond(a Operator, opts *Options) error {
	if !opts.PrecondKind.valid() {
		return fmt.Errorf("solver: unknown preconditioner kind %q", opts.PrecondKind)
	}
	if opts.Precond != nil {
		return nil
	}
	if opts.PrecondKind.operatorBuilt() {
		f, ok := a.(PrecondFactory)
		if !ok {
			return fmt.Errorf("solver: operator %T cannot build the %q preconditioner (no PrecondFactory)", a, opts.PrecondKind)
		}
		pre, err := f.MakePrecond(opts.PrecondKind, opts.PrecondDiag)
		if err != nil {
			return err
		}
		opts.Precond = pre
		return nil
	}
	if opts.PrecondDiag == nil {
		if opts.PrecondKind == PrecondJacobi {
			return fmt.Errorf("solver: %q preconditioning needs Options.PrecondDiag", opts.PrecondKind)
		}
		return nil
	}
	pre, err := JacobiPrecond(opts.PrecondDiag)
	if err != nil {
		return err
	}
	opts.Precond = pre
	return nil
}

// oracleCG is the slice CG recurrence CG ran on plain operators before the
// phase program took over every solve, kept verbatim as a test oracle.
func oracleCG(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	n := a.Size()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	if err := oracleResolvePrecond(a, &opts); err != nil {
		return nil, err
	}
	normB := normOf(a, b)
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	z := make([]float64, n)
	applyPrecond(opts, z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dotOf(a, r, z)
	st := &Stats{}
	for k := 0; k < opts.MaxIter; k++ {
		if opts.cancelled() {
			return st, cancelErr(st)
		}
		if err := a.Apply(ap, p); err != nil {
			return nil, err
		}
		pap := dotOf(a, p, ap)
		if pap == 0 || math.IsNaN(pap) {
			return st, fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, pap, k)
		}
		alpha := rz / pap
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		st.Iterations = k + 1
		st.Residual = normOf(a, r) / normB
		st.History = append(st.History, st.Residual)
		if st.Residual <= opts.Tol {
			st.Converged = true
			return st, nil
		}
		applyPrecond(opts, z, r)
		rzNew := dotOf(a, r, z)
		if rz == 0 {
			return st, fmt.Errorf("%w: rᵀz vanished at iteration %d", ErrBreakdown, k)
		}
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rzNew
	}
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}

// oracleBiCGStab is the slice BiCGStab recurrence, kept verbatim likewise.
func oracleBiCGStab(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	n := a.Size()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	if err := oracleResolvePrecond(a, &opts); err != nil {
		return nil, err
	}
	normB := normOf(a, b)
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rHat := append([]float64(nil), r...)
	var rho, alpha, omega float64 = 1, 1, 1
	v := make([]float64, n)
	p := make([]float64, n)
	ph := make([]float64, n)
	s := make([]float64, n)
	sh := make([]float64, n)
	t := make([]float64, n)
	st := &Stats{}
	for k := 0; k < opts.MaxIter; k++ {
		if opts.cancelled() {
			return st, cancelErr(st)
		}
		rhoNew := dotOf(a, rHat, r)
		if rhoNew == 0 {
			return st, fmt.Errorf("%w: ρ = 0 at iteration %d", ErrBreakdown, k)
		}
		if k == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		applyPrecond(opts, ph, p)
		if err := a.Apply(v, ph); err != nil {
			return nil, err
		}
		den := dotOf(a, rHat, v)
		if den == 0 {
			return st, fmt.Errorf("%w: r̂ᵀv = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		st.Iterations = k + 1
		if res := normOf(a, s) / normB; res <= opts.Tol {
			axpy(x, alpha, ph)
			st.Residual = res
			st.History = append(st.History, res)
			st.Converged = true
			return st, nil
		}
		applyPrecond(opts, sh, s)
		if err := a.Apply(t, sh); err != nil {
			return nil, err
		}
		tt := dotOf(a, t, t)
		if tt == 0 {
			return st, fmt.Errorf("%w: tᵀt = 0 at iteration %d", ErrBreakdown, k)
		}
		omega = dotOf(a, t, s) / tt
		if omega == 0 {
			return st, fmt.Errorf("%w: ω = 0 at iteration %d", ErrBreakdown, k)
		}
		for i := range x {
			x[i] += alpha*ph[i] + omega*sh[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		st.Residual = normOf(a, r) / normB
		st.History = append(st.History, st.Residual)
		if st.Residual <= opts.Tol {
			st.Converged = true
			return st, nil
		}
	}
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}
