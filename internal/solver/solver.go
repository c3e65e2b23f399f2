// Package solver implements the paper's §8 extension: the flux computation
// "is naturally extendable to a matrix-free operator ... for use in an
// iterative Krylov method which would solve equation (2)". It provides
// matrix-free Krylov solvers (CG and BiCGStab) with Jacobi preconditioning
// over an Operator interface, plus two operators for the implicit pressure
// equation:
//
//   - HostOperator: the TPFA flux Jacobian with frozen face mobilities,
//     assembled from the mesh on the host (float64);
//   - DataflowOperator: matrix-free application through the paper's own
//     dataflow kernel — with compressibility and gravity zeroed, the flux
//     residual is exactly linear in pressure, so one engine run per Apply
//     evaluates A·x on the (simulated) wafer.
//
// The solved system is one backward-Euler step of Eq. (2):
//
//	(V·φ·ρref·cf/Δt)·δp − ∂F/∂p·δp = b
//
// whose matrix is symmetric positive definite for frozen mobilities, making
// CG applicable; BiCGStab is provided for the general case.
//
// Each method has one recurrence, a phase program (cgProgram, biProgram)
// run on a VectorSpace. An operator that implements VectorSpace (umesh's
// PartOperator) keeps the working set in its own partitioned layout; any
// other Operator is wrapped in a VectorSpace over plain global slices that
// takes its inner products through the operator's Reducer, when it has one.
//
// Preconditioning is selected by Options.PrecondKind — a ladder of four
// rungs (jacobi, ssor, chebyshev, amg). Jacobi needs only the matrix
// diagonal (Options.PrecondDiag) and works with any Operator; the
// operator-built rungs are constructed by the operator itself, through
// ResidentPrecond on a VectorSpace operator and through PrecondFactory on
// any other (umesh's PartOperator and serial reference implement them). An
// explicit Options.Precond closure replaces the kind on operators that are
// not a VectorSpace.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Operator applies a linear operator y = A·x on float64 vectors.
type Operator interface {
	// Apply computes dst = A·x. len(dst) == len(x) == Size().
	Apply(dst, x []float64) error
	// Size returns the vector length.
	Size() int
}

// Reducer is an optional extension of an Operator that is not a
// VectorSpace: its own inner product over global slices. A solve on such an
// operator takes every inner product and norm through it — umesh's serial
// reference implements it with the canonical blocked sum its partitioned
// twin uses, which keeps serial and partitioned solves bit-identical. A
// conforming implementation must return one fixed summation order, so
// solves stay bit-reproducible.
type Reducer interface {
	Dot(a, b []float64) float64
}

// Vec is an opaque handle to an operator-resident vector — a vector that
// lives in the operator's own (typically partitioned) layout for the whole
// solve. Handles are small integers issued by VectorSpace.Reserve.
type Vec int

// VectorSpace is the space CG and BiCGStab run their recurrence in: an
// operator that holds the Krylov working set in its own layout and executes
// the iteration's vector algebra there, so a solve scatters the inputs
// once, gathers the solution once, and never round-trips a vector through
// global storage in between. Operators that do not implement it run on a
// VectorSpace over global slices.
//
// Contract, so solves reproduce across implementations exactly:
//   - element updates use the documented expressions (e.g. CGStep computes
//     x_i += α·p_i; r_i -= α·ap_i);
//   - every returned inner product is a deterministic left-to-right sum in
//     one fixed global order, the same order for every runtime
//     configuration;
//   - vector contents persist across calls until overwritten; only owned
//     entries need to be maintained between operations (Apply refreshes
//     whatever ghost state it needs itself).
//
// A VectorSpace is driven by one goroutine at a time.
type VectorSpace interface {
	Operator
	// Reserve ensures resident vectors Vec(0)..Vec(n-1) exist. Growing may
	// allocate; re-reserving an existing count must not.
	Reserve(n int)
	// LoadVec2 scatters two global vectors into resident vectors in one
	// phase — the solve's single scatter.
	LoadVec2(v1 Vec, src1 []float64, v2 Vec, src2 []float64)
	// StoreVec gathers a resident vector into global order — the solve's
	// single gather.
	StoreVec(dst []float64, v Vec)
	// SetPrecondDiag installs a resident Jacobi preconditioner from the
	// matrix diagonal (z = r/d elementwise, applied as z_i = (1/d_i)·r_i
	// exactly like JacobiPrecond). A nil diag selects the identity.
	SetPrecondDiag(diag []float64) error
	// CopyVec copies src's owned entries into dst.
	CopyVec(dst, src Vec)
	// DotVec returns ⟨a, b⟩.
	DotVec(a, b Vec) float64
	// Dot2Vec returns ⟨a, x⟩ and ⟨a, y⟩ in one phase.
	Dot2Vec(a, x, y Vec) (float64, float64)
	// ApplyVec computes dst = A·x resident (halo refresh included).
	ApplyVec(dst, x Vec) error
	// ApplyDotVec computes dst = A·x and returns ⟨w, dst⟩, fused.
	ApplyDotVec(dst, x, w Vec) (float64, error)
	// AxpyVec computes y += α·x.
	AxpyVec(y Vec, alpha float64, x Vec)
	// Axpy2Vec computes y += α·x + β·z (one expression per element).
	Axpy2Vec(y Vec, alpha float64, x Vec, beta float64, z Vec)
	// XpbyVec computes y = x + β·y (the CG search-direction update).
	XpbyVec(y Vec, beta float64, x Vec)
	// SubAxpyDotVec computes dst = a − α·b and returns ⟨dst, dst⟩, fused.
	SubAxpyDotVec(dst, a Vec, alpha float64, b Vec) float64
	// CGStepVec computes x += α·p; r −= α·ap and returns ⟨r, r⟩, fused.
	CGStepVec(x Vec, alpha float64, p, r, ap Vec) float64
	// BicgPVec computes p = r + β·(p − ω·v), the BiCGStab direction update.
	BicgPVec(p, r, v Vec, beta, omega float64)
	// PrecondVec computes z = M⁻¹·r.
	PrecondVec(z, r Vec)
	// PrecondDotVec computes z = M⁻¹·r and returns ⟨r, z⟩, fused.
	PrecondDotVec(z, r Vec) float64
}

// Options controls the Krylov iteration.
type Options struct {
	// MaxIter bounds the iteration count (default 500).
	MaxIter int
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8).
	Tol float64
	// Precond optionally supplies a preconditioner application z = M⁻¹r as
	// a closure over global slices, replacing PrecondKind and PrecondDiag.
	// Only operators that are not a VectorSpace accept it: a VectorSpace
	// keeps its vectors in its own layout, and CG/BiCGStab return an error
	// pointing to PrecondDiag/PrecondKind instead.
	Precond func(z, r []float64)
	// PrecondDiag optionally supplies the matrix diagonal for Jacobi
	// preconditioning, installed through VectorSpace.SetPrecondDiag:
	// elementwise z_i = (1/d_i)·r_i, as JacobiPrecond applies it. Ignored
	// when Precond is set.
	PrecondDiag []float64
	// PrecondKind selects a rung of the preconditioner ladder (see the
	// PrecondKind constants). The zero value keeps the pre-ladder behavior:
	// Jacobi when PrecondDiag is set, identity otherwise. Operator-built
	// rungs (SSOR, Chebyshev, AMG) require a VectorSpace operator to
	// implement ResidentPrecond and any other operator PrecondFactory;
	// umesh's two realizations apply identical arithmetic, so its solves
	// stay bit-identical across part counts. Ignored when Precond is set.
	PrecondKind PrecondKind
	// Cancel, when non-nil, is polled at the top of every Krylov iteration
	// — the iteration barrier. When it returns true the solve stops before
	// starting the next iteration and returns ErrCancelled with the best
	// iterate written to x and Stats covering the completed iterations.
	// Cancellation never interrupts an iteration in flight, so the
	// arithmetic of completed iterations (and therefore the bit-identity of
	// solves that finish) is untouched.
	Cancel func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	return o
}

// Stats reports a solve's convergence history.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	// History holds ‖r‖/‖b‖ after each iteration (capped at MaxIter).
	History []float64
}

// ErrBreakdown is returned when the Krylov recurrence degenerates
// (division by a vanishing inner product).
var ErrBreakdown = errors.New("solver: Krylov breakdown")

// ErrNotConverged is returned when MaxIter is reached above tolerance; the
// best iterate is still written to x.
var ErrNotConverged = errors.New("solver: not converged")

// ErrCancelled is returned when Options.Cancel reports true at an iteration
// boundary; the best iterate is still written to x and Stats reflects the
// iterations that completed.
var ErrCancelled = errors.New("solver: cancelled")

// cancelled polls the cancel hook (nil means never).
func (o Options) cancelled() bool { return o.Cancel != nil && o.Cancel() }

func cancelErr(st *Stats) error {
	return fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrCancelled, st.Iterations, st.Residual)
}

// CG solves A·x = b for symmetric positive definite A. x carries the
// initial guess and receives the solution.
//
// The recurrence is cgProgram on the operator's VectorSpace: a VectorSpace
// operator keeps the working set in its own layout (one scatter of (x, b),
// one gather of the solution, fused phases in between); any other operator
// runs the same program over global slices.
func CG(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	vs, err := vectorSpace(a, x, b, opts)
	if err != nil {
		return nil, err
	}
	return cgResident(vs, x, b, opts)
}

// BiCGStab solves A·x = b for general (nonsymmetric) A through biProgram,
// on the same VectorSpace CG would use.
func BiCGStab(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	vs, err := vectorSpace(a, x, b, opts)
	if err != nil {
		return nil, err
	}
	return bicgstabResident(vs, x, b, opts)
}

// vectorSpace checks the solve's sizes and returns the VectorSpace it runs
// on with the selected preconditioner installed: the operator itself when
// it is one, otherwise a sliceSpace over it. An Options.Precond closure
// works on global slices, so only a sliceSpace can apply it.
func vectorSpace(a Operator, x, b []float64, opts Options) (VectorSpace, error) {
	n := a.Size()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	if !opts.PrecondKind.valid() {
		return nil, fmt.Errorf("solver: unknown preconditioner kind %q", opts.PrecondKind)
	}
	vs, ok := a.(VectorSpace)
	if ok && opts.Precond != nil {
		return nil, fmt.Errorf("solver: operator %T keeps its vectors resident and cannot apply an Options.Precond closure; use Options.PrecondDiag or Options.PrecondKind", a)
	}
	if !ok {
		s := newSliceSpace(a)
		if opts.Precond != nil {
			s.pre = opts.Precond
			return s, nil
		}
		vs = s
	}
	return vs, installPrecond(vs, opts)
}

// JacobiPrecond builds a Jacobi (diagonal) preconditioner from the
// operator's diagonal, estimated matrix-free with unit probes when diag is
// nil, or using the given diagonal directly.
func JacobiPrecond(diag []float64) (func(z, r []float64), error) {
	for i, d := range diag {
		if d == 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("solver: zero/NaN diagonal entry at %d", i)
		}
	}
	inv := make([]float64, len(diag))
	for i, d := range diag {
		inv[i] = 1 / d
	}
	return func(z, r []float64) {
		for i := range z {
			z[i] = inv[i] * r[i]
		}
	}, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
