package solver

import "fmt"

// This file is the preconditioner ladder's solver-side plumbing. A
// preconditioner rung is selected by name (Options.PrecondKind) and
// installed on the solve's VectorSpace by installPrecond, the one place a
// rung is chosen:
//
//   - a VectorSpace operator installs the rung through the optional
//     ResidentPrecond extension, so the preconditioner application executes
//     as fused phases in the operator's own compact layout;
//   - any other operator is asked for a closure over global slices through
//     the optional PrecondFactory extension (the serial reference operator
//     implements it, so serial golden trajectories wrap the very same
//     preconditioner the partitioned solves run).
//
// Jacobi (and the identity default) need no operator cooperation: every
// VectorSpace implements them directly from Options.PrecondDiag.

// PrecondKind names a rung of the preconditioner ladder. The zero value
// selects the pre-ladder default: Jacobi when Options.PrecondDiag is set,
// identity otherwise.
type PrecondKind string

// The ladder's rungs, in ascending strength (and per-iteration cost):
// diagonal scaling, symmetric Gauss–Seidel over canonical blocks, a fixed-
// degree Chebyshev polynomial of the Jacobi-scaled operator, and a two-level
// aggregation AMG V-cycle.
const (
	// PrecondDefault is the unset kind: Jacobi when PrecondDiag is given,
	// identity otherwise.
	PrecondDefault PrecondKind = ""
	// PrecondJacobi is diagonal scaling z_i = (1/d_i)·r_i. Requires
	// Options.PrecondDiag.
	PrecondJacobi PrecondKind = "jacobi"
	// PrecondSSOR is symmetric Gauss–Seidel (SSOR at ω=1) restricted to the
	// operator's canonical reduction blocks, so the sweep is identical for
	// every part count. Operator-built (PrecondFactory / ResidentPrecond).
	PrecondSSOR PrecondKind = "ssor"
	// PrecondChebyshev is a fixed-degree Chebyshev polynomial of the
	// Jacobi-scaled operator — applications and elementwise updates only,
	// no triangular solves. Operator-built.
	PrecondChebyshev PrecondKind = "chebyshev"
	// PrecondAMG is a two-level aggregation AMG V-cycle: weighted-Jacobi
	// smoothing around a Galerkin coarse correction whose operator is
	// assembled once per system and factored directly. Operator-built.
	PrecondAMG PrecondKind = "amg"
)

// PrecondKinds lists the ladder's rungs in ascending strength order — the
// sweep order benchmarks and CLIs use.
func PrecondKinds() []PrecondKind {
	return []PrecondKind{PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG}
}

// valid reports whether k names a known rung (or the default).
func (k PrecondKind) valid() bool {
	switch k {
	case PrecondDefault, PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// operatorBuilt reports whether the rung needs the operator to construct it
// (everything above Jacobi: the construction needs the matrix graph).
func (k PrecondKind) operatorBuilt() bool {
	switch k {
	case PrecondSSOR, PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// PrecondFactory is an optional extension of an Operator that is not a
// VectorSpace: an operator that can build the ladder's operator-defined
// preconditioners as closures over global slices. A solve calls it for any
// operator-built PrecondKind; the returned closure must apply the exact
// same arithmetic, in the same order, as the operator family's resident
// counterpart (ResidentPrecond), so serial and partitioned solves with the
// same rung stay bit-identical.
type PrecondFactory interface {
	MakePrecond(kind PrecondKind, diag []float64) (func(z, r []float64), error)
}

// ResidentPrecond is an optional VectorSpace extension: a resident operator
// that can install the ladder's operator-defined preconditioners in its own
// layout, so PrecondVec/PrecondDotVec apply the selected rung as fused
// phases. SetPrecond replaces any previously installed preconditioner
// (including SetPrecondDiag's Jacobi).
type ResidentPrecond interface {
	SetPrecond(kind PrecondKind, diag []float64) error
}

// installPrecond installs the selected rung on a resident operator:
// Jacobi/identity through the core SetPrecondDiag, operator-built rungs
// through the ResidentPrecond extension.
func installPrecond(a VectorSpace, opts Options) error {
	if opts.PrecondKind.operatorBuilt() {
		rp, ok := a.(ResidentPrecond)
		if !ok {
			return fmt.Errorf("solver: operator %T has no resident %q preconditioner (no ResidentPrecond)", a, opts.PrecondKind)
		}
		return rp.SetPrecond(opts.PrecondKind, opts.PrecondDiag)
	}
	if opts.PrecondKind == PrecondJacobi && opts.PrecondDiag == nil {
		return fmt.Errorf("solver: %q preconditioning needs Options.PrecondDiag", opts.PrecondKind)
	}
	return a.SetPrecondDiag(opts.PrecondDiag)
}
