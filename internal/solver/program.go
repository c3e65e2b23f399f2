package solver

// This file defines the phase-program representation of a Krylov iteration.
// The solvers (resident.go) do not drive a VectorSpace one method call at a
// time; they describe one iteration as a fixed list of
// ProgOps — vector kernels with scalar inputs read through pointers at run
// time, reduction results written through pointers, and host actions (the
// α/β recurrences, breakdown checks, convergence tests) attached to the op
// whose results they consume. The list is the single source of iteration
// truth with two executors:
//
//   - a ProgramSpace operator (umesh.PartOperator) compiles the list into an
//     exec.Plan: one SPMD pass per iteration with the counted minimum of
//     barriers, actions running inside the barriers;
//   - any other VectorSpace (the sliceSpace every plain Operator runs on)
//     gets the interpreter below, which replays the list through the
//     ordinary VectorSpace methods — same arithmetic, same order, so both
//     executors produce bit-identical solves.

// OpKind enumerates the vector kernels a ProgOp can request. The vector
// operands are named V1..V5, scalar inputs A1/A2 (dereferenced when the op
// runs, so actions earlier in the same program can set them), reduction
// results R1/R2.
type OpKind uint8

const (
	// OpApply: V1 = A·V2.
	OpApply OpKind = iota
	// OpApplyDot: V1 = A·V2 and *R1 = ⟨V3, V1⟩, fused.
	OpApplyDot
	// OpDot: *R1 = ⟨V1, V2⟩.
	OpDot
	// OpDot2: *R1 = ⟨V1, V2⟩ and *R2 = ⟨V1, V3⟩ in one pass.
	OpDot2
	// OpCopy: V1 = V2.
	OpCopy
	// OpAxpy2: V1 += *A1·V2 + *A2·V3.
	OpAxpy2
	// OpXpby: V1 = V2 + *A1·V1.
	OpXpby
	// OpSubAxpyDot: V1 = V2 − *A1·V3 and *R1 = ⟨V1, V1⟩, fused.
	OpSubAxpyDot
	// OpCGStep: V1 += *A1·V2; V3 −= *A1·V4 and *R1 = ⟨V3, V3⟩, fused.
	OpCGStep
	// OpCGStepPre: OpCGStep plus the diagonal preconditioner application
	// V5 = M⁻¹·V3 and *R2 = ⟨V3, V5⟩, all in one pass. Only emitted when
	// the active preconditioner is elementwise (identity or Jacobi); the
	// operator-built rungs need their own phases and use OpCGStep +
	// OpPrecondDot instead.
	OpCGStepPre
	// OpBicgP: V1 = V2 + *A1·(V1 − *A2·V3), the BiCGStab direction update.
	OpBicgP
	// OpPrecond: V1 = M⁻¹·V2.
	OpPrecond
	// OpPrecondDot: V1 = M⁻¹·V2 and *R1 = ⟨V2, V1⟩, fused.
	OpPrecondDot
)

// ProgOp is one step of a phase program: a vector kernel plus an optional
// host Action that runs after the kernel (and its reductions) complete.
// Actions are where the solver's scalar recurrence lives; returning
// stop=true ends the program run early (convergence), an error aborts it
// (breakdown).
type ProgOp struct {
	Kind               OpKind
	V1, V2, V3, V4, V5 Vec
	A1, A2             *float64
	R1, R2             *float64
	Action             func() (stop bool, err error)
}

// Program is a compiled phase program. Run executes one full pass — for the
// resident solvers, one Krylov iteration — and reports whether an action
// stopped it early.
type Program interface {
	Run() (stopped bool, err error)
}

// ProgramSpace is the VectorSpace extension for operators that can compile a
// phase program into their own execution machinery (for the partitioned
// operator: an exec.Plan run SPMD by the worker pool, host actions executed
// inside the barriers).
type ProgramSpace interface {
	VectorSpace
	CompileProgram(ops []ProgOp) (Program, error)
}

// compileProgram returns the operator's own compilation when it offers one,
// else the method-by-method interpreter.
func compileProgram(a VectorSpace, ops []ProgOp) (Program, error) {
	if ps, ok := a.(ProgramSpace); ok {
		return ps.CompileProgram(ops)
	}
	return &interpProgram{vs: a, ops: ops}, nil
}

// interpProgram replays a phase program through plain VectorSpace calls.
type interpProgram struct {
	vs  VectorSpace
	ops []ProgOp
}

func (p *interpProgram) Run() (bool, error) {
	a := p.vs
	for i := range p.ops {
		op := &p.ops[i]
		switch op.Kind {
		case OpApply:
			if err := a.ApplyVec(op.V1, op.V2); err != nil {
				return false, err
			}
		case OpApplyDot:
			d, err := a.ApplyDotVec(op.V1, op.V2, op.V3)
			if err != nil {
				return false, err
			}
			*op.R1 = d
		case OpDot:
			*op.R1 = a.DotVec(op.V1, op.V2)
		case OpDot2:
			*op.R1, *op.R2 = a.Dot2Vec(op.V1, op.V2, op.V3)
		case OpCopy:
			a.CopyVec(op.V1, op.V2)
		case OpAxpy2:
			a.Axpy2Vec(op.V1, *op.A1, op.V2, *op.A2, op.V3)
		case OpXpby:
			a.XpbyVec(op.V1, *op.A1, op.V2)
		case OpSubAxpyDot:
			*op.R1 = a.SubAxpyDotVec(op.V1, op.V2, *op.A1, op.V3)
		case OpCGStep:
			*op.R1 = a.CGStepVec(op.V1, *op.A1, op.V2, op.V3, op.V4)
		case OpCGStepPre:
			*op.R1 = a.CGStepVec(op.V1, *op.A1, op.V2, op.V3, op.V4)
			*op.R2 = a.PrecondDotVec(op.V5, op.V3)
		case OpBicgP:
			a.BicgPVec(op.V1, op.V2, op.V3, *op.A1, *op.A2)
		case OpPrecond:
			a.PrecondVec(op.V1, op.V2)
		case OpPrecondDot:
			*op.R1 = a.PrecondDotVec(op.V1, op.V2)
		}
		if op.Action != nil {
			stop, err := op.Action()
			if err != nil {
				return false, err
			}
			if stop {
				return true, nil
			}
		}
	}
	return false, nil
}
