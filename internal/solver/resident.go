package solver

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the Krylov recurrences, one per method: CG and BiCGStab
// executed entirely through a VectorSpace, so every working vector lives in
// the operator's own layout for the whole solve (global slices for a
// sliceSpace, the parts' compact layouts for a partitioned operator). A
// solve scatters its inputs once (LoadVec2), gathers the solution once
// (StoreVec), and runs each iteration as one phase program (see
// program.go): the vector kernels of the recurrence with the scalar
// bookkeeping attached as host actions. A ProgramSpace operator executes
// the program as a single SPMD plan per iteration; everything else goes
// through the interpreter — same ops, same order, bit-identical results.
//
// Bit-identity discipline: every VectorSpace evaluates the documented
// element expressions and sums each reduction in its one fixed global
// order, so two operators with the same summation order (umesh's serial
// reference and its partitioned operator) produce bit-identical solves.

// Resident vector handles: the solvers address their working sets as fixed
// slots Vec(0..n-1) reserved up front, so repeated solves on one operator
// reuse the same storage and allocate nothing new.
const (
	cgX   = Vec(0)
	cgB   = Vec(1)
	cgR   = Vec(2)
	cgZ   = Vec(3)
	cgP   = Vec(4)
	cgAp  = Vec(5)
	cgLen = 6

	biX    = Vec(0)
	biB    = Vec(1)
	biR    = Vec(2)
	biRHat = Vec(3)
	biV    = Vec(4)
	biP    = Vec(5)
	biPh   = Vec(6)
	biS    = Vec(7)
	biSh   = Vec(8)
	biT    = Vec(9)
	biLen  = 10
)

// cgState is the scalar state of one resident CG solve, shared between the
// program's ops (via pointers) and its actions (via closure).
type cgState struct {
	k                               int
	rz, rzNew, pap, alpha, beta, rr float64
	normB, tol                      float64
	st                              *Stats
}

// cgProgram is one CG iteration as a phase program. With an elementwise
// (identity/Jacobi) preconditioner the residual update, preconditioner
// application and both dots fuse into a single OpCGStepPre pass; the
// operator-built rungs (SSOR/Chebyshev/AMG) keep the update and the
// preconditioner as separate ops so a converged final iteration skips the
// expensive preconditioner.
func cgProgram(s *cgState, rung bool) []ProgOp {
	alphaAct := func() (bool, error) {
		if s.pap == 0 || math.IsNaN(s.pap) {
			return false, fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, s.pap, s.k)
		}
		s.alpha = s.rz / s.pap
		return false, nil
	}
	convAct := func() (bool, error) {
		s.st.Iterations = s.k + 1
		s.st.Residual = math.Sqrt(s.rr) / s.normB
		s.st.History = append(s.st.History, s.st.Residual)
		return s.st.Residual <= s.tol, nil
	}
	betaAct := func() (bool, error) {
		if s.rz == 0 {
			return false, fmt.Errorf("%w: rᵀz vanished at iteration %d", ErrBreakdown, s.k)
		}
		s.beta = s.rzNew / s.rz
		s.rz = s.rzNew
		return false, nil
	}
	if rung {
		return []ProgOp{
			{Kind: OpApplyDot, V1: cgAp, V2: cgP, V3: cgP, R1: &s.pap, Action: alphaAct},
			{Kind: OpCGStep, V1: cgX, V2: cgP, V3: cgR, V4: cgAp, A1: &s.alpha, R1: &s.rr, Action: convAct},
			{Kind: OpPrecondDot, V1: cgZ, V2: cgR, R1: &s.rzNew, Action: betaAct},
			{Kind: OpXpby, V1: cgP, V2: cgZ, A1: &s.beta},
		}
	}
	// Fused variant: the preconditioner runs even on the final converged
	// iteration (z is scratch and rzNew goes unused then, so outputs are
	// unchanged); in exchange the steady-state iteration is three ops.
	fusedAct := func() (bool, error) {
		if stop, err := convAct(); stop || err != nil {
			return stop, err
		}
		return betaAct()
	}
	return []ProgOp{
		{Kind: OpApplyDot, V1: cgAp, V2: cgP, V3: cgP, R1: &s.pap, Action: alphaAct},
		{Kind: OpCGStepPre, V1: cgX, V2: cgP, V3: cgR, V4: cgAp, V5: cgZ,
			A1: &s.alpha, R1: &s.rr, R2: &s.rzNew, Action: fusedAct},
		{Kind: OpXpby, V1: cgP, V2: cgZ, A1: &s.beta},
	}
}

// cgResident is preconditioned conjugate gradients with the whole working
// set resident in the VectorSpace, its preconditioner already installed.
func cgResident(a VectorSpace, x, b []float64, opts Options) (*Stats, error) {
	a.Reserve(cgLen)
	a.LoadVec2(cgX, x, cgB, b) // the solve's one scatter
	normB := math.Sqrt(a.DotVec(cgB, cgB))
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	// r = b − A·x (the SubAxpy's fused ⟨r,r⟩ is discarded: the recurrence
	// takes no initial residual norm).
	if err := a.ApplyVec(cgAp, cgX); err != nil {
		return nil, err
	}
	a.SubAxpyDotVec(cgR, cgB, 1, cgAp)
	st := &Stats{}
	s := &cgState{normB: normB, tol: opts.Tol, st: st}
	s.rz = a.PrecondDotVec(cgZ, cgR)
	a.CopyVec(cgP, cgZ)
	prog, err := compileProgram(a, cgProgram(s, opts.PrecondKind.operatorBuilt()))
	if err != nil {
		return nil, err
	}
	for k := 0; k < opts.MaxIter; k++ {
		// The cancel poll sits between iterations — between one prog.Run()
		// and the next — so a cancelled solve stops at a clean iteration
		// boundary and every completed iteration's arithmetic is untouched.
		if opts.cancelled() {
			a.StoreVec(x, cgX)
			return st, cancelErr(st)
		}
		s.k = k
		stopped, err := prog.Run()
		if err != nil {
			if errors.Is(err, ErrBreakdown) {
				a.StoreVec(x, cgX)
				return st, err
			}
			return nil, err
		}
		if stopped {
			st.Converged = true
			a.StoreVec(x, cgX) // the solve's one gather
			return st, nil
		}
	}
	a.StoreVec(x, cgX)
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}

// biState is the scalar state of one resident BiCGStab solve.
type biState struct {
	k                                                    int
	rho, rhoNew, beta, alpha, den, ss, omega, tt, ts, rr float64
	normB, tol                                           float64
	st                                                   *Stats
	half                                                 bool // converged at the half step (after s)
}

// biProgram is one BiCGStab iteration as a phase program. The first
// iteration copies p = r; steady iterations run the direction update with
// β — two programs rather than one with a β=0 substitution, which would not
// be bitwise-safe (signed zeros).
func biProgram(s *biState, first bool) []ProgOp {
	rhoAct := func() (bool, error) {
		if s.rhoNew == 0 {
			return false, fmt.Errorf("%w: ρ = 0 at iteration %d", ErrBreakdown, s.k)
		}
		if !first {
			s.beta = (s.rhoNew / s.rho) * (s.alpha / s.omega)
		}
		s.rho = s.rhoNew
		return false, nil
	}
	denAct := func() (bool, error) {
		if s.den == 0 {
			return false, fmt.Errorf("%w: r̂ᵀv = 0 at iteration %d", ErrBreakdown, s.k)
		}
		s.alpha = s.rho / s.den
		return false, nil
	}
	ssAct := func() (bool, error) {
		s.st.Iterations = s.k + 1
		if res := math.Sqrt(s.ss) / s.normB; res <= s.tol {
			s.st.Residual = res
			s.st.History = append(s.st.History, res)
			s.half = true
			return true, nil
		}
		return false, nil
	}
	ttAct := func() (bool, error) {
		if s.tt == 0 {
			return false, fmt.Errorf("%w: tᵀt = 0 at iteration %d", ErrBreakdown, s.k)
		}
		s.omega = s.ts / s.tt
		if s.omega == 0 {
			return false, fmt.Errorf("%w: ω = 0 at iteration %d", ErrBreakdown, s.k)
		}
		return false, nil
	}
	rrAct := func() (bool, error) {
		s.st.Residual = math.Sqrt(s.rr) / s.normB
		s.st.History = append(s.st.History, s.st.Residual)
		return s.st.Residual <= s.tol, nil
	}
	dir := ProgOp{Kind: OpBicgP, V1: biP, V2: biR, V3: biV, A1: &s.beta, A2: &s.omega}
	if first {
		dir = ProgOp{Kind: OpCopy, V1: biP, V2: biR}
	}
	return []ProgOp{
		{Kind: OpDot, V1: biRHat, V2: biR, R1: &s.rhoNew, Action: rhoAct},
		dir,
		{Kind: OpPrecond, V1: biPh, V2: biP},
		{Kind: OpApplyDot, V1: biV, V2: biPh, V3: biRHat, R1: &s.den, Action: denAct},
		{Kind: OpSubAxpyDot, V1: biS, V2: biR, V3: biV, A1: &s.alpha, R1: &s.ss, Action: ssAct},
		{Kind: OpPrecond, V1: biSh, V2: biS},
		{Kind: OpApply, V1: biT, V2: biSh},
		{Kind: OpDot2, V1: biT, V2: biT, V3: biS, R1: &s.tt, R2: &s.ts, Action: ttAct},
		{Kind: OpAxpy2, V1: biX, V2: biPh, V3: biSh, A1: &s.alpha, A2: &s.omega},
		{Kind: OpSubAxpyDot, V1: biR, V2: biS, V3: biT, A1: &s.omega, R1: &s.rr, Action: rrAct},
	}
}

// bicgstabResident is BiCGStab with the whole working set resident in the
// VectorSpace, its preconditioner already installed.
func bicgstabResident(a VectorSpace, x, b []float64, opts Options) (*Stats, error) {
	a.Reserve(biLen)
	a.LoadVec2(biX, x, biB, b) // the solve's one scatter
	normB := math.Sqrt(a.DotVec(biB, biB))
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	// r = b − A·x, r̂ = r.
	if err := a.ApplyVec(biT, biX); err != nil {
		return nil, err
	}
	a.SubAxpyDotVec(biR, biB, 1, biT)
	a.CopyVec(biRHat, biR)
	st := &Stats{}
	s := &biState{rho: 1, alpha: 1, omega: 1, normB: normB, tol: opts.Tol, st: st}
	firstProg, err := compileProgram(a, biProgram(s, true))
	if err != nil {
		return nil, err
	}
	steadyProg, err := compileProgram(a, biProgram(s, false))
	if err != nil {
		return nil, err
	}
	for k := 0; k < opts.MaxIter; k++ {
		// Same iteration-boundary cancel discipline as cgResident.
		if opts.cancelled() {
			a.StoreVec(x, biX)
			return st, cancelErr(st)
		}
		s.k = k
		prog := steadyProg
		if k == 0 {
			prog = firstProg
		}
		stopped, err := prog.Run()
		if err != nil {
			if errors.Is(err, ErrBreakdown) {
				a.StoreVec(x, biX)
				return st, err
			}
			return nil, err
		}
		if stopped {
			if s.half {
				// Converged at the half step: finish x += α·p̂ before the
				// gather (the second half of the update never ran).
				a.AxpyVec(biX, s.alpha, biPh)
				s.half = false
			}
			st.Converged = true
			a.StoreVec(x, biX) // the solve's one gather
			return st, nil
		}
	}
	a.StoreVec(x, biX)
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}
