package umesh

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/solver"
)

// This file implements solver.ProgramSpace on PartOperator: CompileProgram
// lowers a solver phase program (one Krylov iteration as a fixed ProgOp
// list) into a single exec.Plan. Executing the plan runs the whole iteration
// as one SPMD pass — one pool dispatch and one barrier per plan step instead
// of one dispatch (two barriers' worth of channel traffic in the old
// runtime) per vector method. The solver's scalar recurrence rides along as
// barrier actions: tree folds of the block partials, the α/β updates,
// breakdown checks and the convergence test all run exactly once, on
// whichever worker arrives last, between the step that produced their inputs
// and the step that consumes them.
//
// Step budget (the counted minimum asserted by TestCompiledCGIterationStepCount):
// a Jacobi/identity CG iteration compiles to 3 steps at parts=1 (fused
// apply+dot, fused CGStep+precond+both dots, Xpby) and 4 steps when any part
// exchanges halo data (the application splits into push+interior and
// frontier around the barrier that orders the halo writes).
//
// Compilation freezes the operator's preconditioner configuration: preKind,
// the Chebyshev scalars and the AMG level are read at compile time, so a
// program must be compiled after the preconditioner is installed and
// recompiled if it changes. The resident solvers do exactly that
// (installPrecond runs before compileProgram).
//
// Scalar inputs (*A1/*A2) are dereferenced inside the step's phase closures
// at run time: the action that sets them runs at the barrier before the
// step, so every worker reads the settled value.

// compiledProgram is a solver phase program lowered onto the operator's
// worker pool.
type compiledProgram struct {
	o    *PartOperator
	plan *exec.Plan
}

// Run executes one pass of the program (for the resident solvers: one Krylov
// iteration) as a single plan dispatch.
func (p *compiledProgram) Run() (bool, error) {
	stopped, err := p.plan.Execute()
	p.o.syncCounters()
	return stopped, err
}

// CompileProgram implements solver.ProgramSpace.
func (o *PartOperator) CompileProgram(ops []solver.ProgOp) (solver.Program, error) {
	b := &planBuilder{o: o}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case solver.OpApply:
			b.emitApply(op, false)
		case solver.OpApplyDot:
			b.emitApply(op, true)
		case solver.OpDot:
			b.emitDot(int(op.V1), int(op.V2), op.R1, op.Action)
		case solver.OpDot2:
			b.emitDot2(op)
		case solver.OpCopy:
			dstv, srcv := int(op.V1), int(op.V2)
			b.add(func(shard int) error { o.shardCopy(shard, dstv, srcv); return nil }, &o.Phase.Reduce)
			b.attachAction(op.Action)
		case solver.OpAxpy2:
			yv, xv, zv, a1, a2 := int(op.V1), int(op.V2), int(op.V3), op.A1, op.A2
			b.add(func(shard int) error { o.shardAxpy2(shard, yv, xv, zv, *a1, *a2); return nil }, &o.Phase.Reduce)
			b.attachAction(op.Action)
		case solver.OpXpby:
			yv, xv, a1 := int(op.V1), int(op.V2), op.A1
			b.add(func(shard int) error { o.shardXpby(shard, yv, xv, *a1); return nil }, &o.Phase.Reduce)
			b.attachAction(op.Action)
		case solver.OpSubAxpyDot:
			dstv, av, bv, a1 := int(op.V1), int(op.V2), int(op.V3), op.A1
			b.add(func(shard int) error { o.shardSubAxpyDot(shard, dstv, av, bv, *a1); return nil },
				&o.Phase.Reduce, b.foldAct(op.R1))
			b.attachAction(op.Action)
		case solver.OpCGStep:
			xv, pv, rv, apv, a1 := int(op.V1), int(op.V2), int(op.V3), int(op.V4), op.A1
			b.add(func(shard int) error { o.shardCGStep(shard, xv, pv, rv, apv, *a1); return nil },
				&o.Phase.Reduce, b.foldAct(op.R1))
			b.attachAction(op.Action)
		case solver.OpCGStepPre:
			xv, pv, rv, apv, zv, a1 := int(op.V1), int(op.V2), int(op.V3), int(op.V4), int(op.V5), op.A1
			b.add(func(shard int) error { o.shardCGStepPre(shard, xv, pv, rv, apv, zv, *a1); return nil },
				&o.Phase.Reduce, b.fold2Act(op.R1, op.R2))
			b.attachAction(op.Action)
		case solver.OpBicgP:
			pv, rv, vv, a1, a2 := int(op.V1), int(op.V2), int(op.V3), op.A1, op.A2
			b.add(func(shard int) error { o.shardBicgP(shard, pv, rv, vv, *a1, *a2); return nil }, &o.Phase.Reduce)
			b.attachAction(op.Action)
		case solver.OpPrecond:
			b.emitPrecond(op, false)
		case solver.OpPrecondDot:
			b.emitPrecond(op, true)
		default:
			return nil, fmt.Errorf("umesh: cannot compile program op kind %d", op.Kind)
		}
	}
	return &compiledProgram{o: o, plan: o.e.pool.NewPlan(b.steps)}, nil
}

// planBuilder accumulates the plan's steps during compilation. All closure
// allocation happens here, once per compile; executing the plan allocates
// nothing.
type planBuilder struct {
	o     *PartOperator
	steps []exec.Step
}

func (b *planBuilder) add(phase func(int) error, bucket *float64, acts ...func() (bool, error)) {
	b.steps = append(b.steps, exec.Step{Phase: phase, Actions: acts, Bucket: bucket})
}

// attachAction appends a solver action to the most recent step's barrier.
func (b *planBuilder) attachAction(act func() (bool, error)) {
	if act == nil {
		return
	}
	last := &b.steps[len(b.steps)-1]
	last.Actions = append(last.Actions, act)
}

// foldAct is the canonical reduction as a barrier action: treeFold the block
// partials into the op's result before the solver action reads it.
func (b *planBuilder) foldAct(r1 *float64) func() (bool, error) {
	o := b.o
	return func() (bool, error) {
		*r1 = treeFold(o.blockSums)
		return false, nil
	}
}

func (b *planBuilder) fold2Act(r1, r2 *float64) func() (bool, error) {
	o := b.o
	return func() (bool, error) {
		*r1 = treeFold(o.blockSums)
		*r2 = treeFold(o.blockSums2)
		return false, nil
	}
}

// emitApply lowers OpApply/OpApplyDot: the fused push+interior step, and —
// only when some part actually exchanges halo data or has frontier rows —
// the frontier step after the barrier that orders the halo writes. The
// reduction fold, the communication accounting and the solver action all run
// at the final step's barrier.
func (b *planBuilder) emitApply(op *solver.ProgOp, withDot bool) {
	o := b.o
	dstv, xv, wv := int(op.V1), int(op.V2), int(op.V3)
	var acts []func() (bool, error)
	if withDot {
		acts = append(acts, b.foldAct(op.R1))
	}
	acts = append(acts, func() (bool, error) { o.finishApply(); return false, nil })
	if op.Action != nil {
		acts = append(acts, op.Action)
	}
	send := func(shard int) error { o.applySend(shard, xv, dstv, wv, withDot, false); return nil }
	if !o.split {
		b.add(send, &o.Phase.Compute, acts...)
		return
	}
	b.add(send, &o.Phase.Compute)
	b.add(func(shard int) error { o.applyFrontier(shard, xv, dstv, wv, withDot, false); return nil },
		&o.Phase.Compute, acts...)
}

// emitScratchApply lowers a preconditioner-internal application A·x onto the
// per-part scratch destination (the Chebyshev/AMG w vector).
func (b *planBuilder) emitScratchApply(xv int) {
	o := b.o
	fin := func() (bool, error) { o.finishApply(); return false, nil }
	send := func(shard int) error { o.applySend(shard, xv, 0, 0, false, true); return nil }
	if !o.split {
		b.add(send, &o.Phase.Compute, fin)
		return
	}
	b.add(send, &o.Phase.Compute)
	b.add(func(shard int) error { o.applyFrontier(shard, xv, 0, 0, false, true); return nil },
		&o.Phase.Compute, fin)
}

// emitDot lowers an inner product ⟨a, b⟩ with its fold and solver action.
func (b *planBuilder) emitDot(av, bv int, r1 *float64, act func() (bool, error)) {
	o := b.o
	b.add(func(shard int) error { o.shardDot(shard, av, bv); return nil }, &o.Phase.Reduce, b.foldAct(r1))
	b.attachAction(act)
}

func (b *planBuilder) emitDot2(op *solver.ProgOp) {
	o := b.o
	av, xv, yv := int(op.V1), int(op.V2), int(op.V3)
	b.add(func(shard int) error { o.shardDot2(shard, av, xv, yv); return nil },
		&o.Phase.Reduce, b.fold2Act(op.R1, op.R2))
	b.attachAction(op.Action)
}

// emitPrecond lowers OpPrecond/OpPrecondDot for the preconditioner installed
// at compile time. The elementwise default is one fused step; the ladder
// rungs expand into their phase sequences — the exact step structure the
// staged PrecondVec runs, minus the per-phase dispatches — with the
// host-serial coarse solve of the AMG V-cycle running as a barrier action
// (host work belongs in actions: a nested dispatch from inside a plan would
// deadlock the pool). OpPrecondDot appends the canonical ⟨r, z⟩ reduction,
// fused into the default rung's single step and a separate dot step for the
// operator-built rungs, mirroring the staged path.
func (b *planBuilder) emitPrecond(op *solver.ProgOp, withDot bool) {
	o := b.o
	zv, rv := int(op.V1), int(op.V2)
	switch o.preKind {
	case solver.PrecondSSOR:
		b.add(func(shard int) error { o.shardSSOR(shard, zv, rv); return nil }, &o.Phase.Reduce)
	case solver.PrecondChebyshev:
		cf := o.cheb
		b.add(func(shard int) error { o.shardChebInit(shard, zv, rv, cf.invTheta); return nil }, &o.Phase.Reduce)
		rhoPrev := cf.rho0
		for k := 1; k < chebDegree; k++ {
			b.emitScratchApply(zv)
			rho := 1 / (2*cf.sigma - rhoPrev)
			c1, c2 := rho*rhoPrev, 2*rho/cf.delta
			b.add(func(shard int) error { o.shardChebStep(shard, zv, rv, c1, c2); return nil }, &o.Phase.Reduce)
			rhoPrev = rho
		}
	case solver.PrecondAMG:
		b.add(func(shard int) error { o.shardAMGPre(shard, zv, rv); return nil }, &o.Phase.Reduce)
		b.emitScratchApply(zv)
		b.add(func(shard int) error { o.shardAMGRestrict(shard, rv); return nil }, &o.Phase.Reduce,
			func() (bool, error) { o.amg.solveCoarse(o.coarseR, o.coarseE); return false, nil })
		b.add(func(shard int) error { o.shardAMGProlong(shard, zv); return nil }, &o.Phase.Reduce)
		b.emitScratchApply(zv)
		b.add(func(shard int) error { o.shardAMGPost(shard, zv, rv); return nil }, &o.Phase.Reduce)
	default:
		if withDot {
			b.add(func(shard int) error { o.shardPreDot(shard, zv, rv); return nil },
				&o.Phase.Reduce, b.foldAct(op.R1))
			b.attachAction(op.Action)
		} else {
			b.add(func(shard int) error { o.shardPre(shard, zv, rv); return nil }, &o.Phase.Reduce)
			b.attachAction(op.Action)
		}
		return
	}
	if withDot {
		b.emitDot(rv, zv, op.R1, op.Action)
	} else {
		b.attachAction(op.Action)
	}
}

var _ solver.ProgramSpace = (*PartOperator)(nil)
