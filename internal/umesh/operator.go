package umesh

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/physics"
	"repro/internal/solver"
)

// This file is the §8 extension carried onto the partitioned unstructured
// runtime: the flux kernel as a matrix-free linear operator for an iterative
// Krylov method. USystem freezes one backward-Euler pressure step of Eq. (2)
// over an unstructured mesh (the unstructured mirror of
// solver.PressureSystem); UHostOperator applies it serially in float64 — the
// reference every partitioned solve is measured against; PartOperator is the
// part-resident operator: the whole Krylov working set (x, r, p, q, z for
// CG; the BiCGStab set) lives in each part's compact local layout
// (owned-first + halo blocks) for the whole solve, so a solve performs
// exactly one initial scatter and one final gather instead of one global
// round-trip per operator application.
//
// Execution model: every phase body exists twice — as a staged method (the
// o.v1/o.sc1 fields are set, then one exec.Pool.Run dispatch) used by the
// individual VectorSpace calls, and as a parameterized shard kernel captured
// into an exec.Plan step by CompileProgram (program.go), which compiles a
// whole Krylov iteration into one SPMD plan: one dispatch and the counted
// minimum of barriers per iteration, with the solver's scalar recurrence
// running inside the barriers as step actions.
//
// Halo movement is direct-write: each part's send plan carries the
// receiver's halo block base (opSend.dstBase), and the send phase writes the
// planned owned values straight into the neighbor's resident vector — one
// coalesced write region per (src, dst) pair per exchange, no intermediate
// buffers or channels. The writes land in halo ranges no other part touches,
// and the step barrier orders them before the frontier rows read them.
//
// Determinism discipline: every inner product is accumulated per canonical
// block in compact (canonical RCB) order, and the block partials are folded
// by treeFold — a fixed binary tree that is a function of the block
// structure only. The serial reference reduces with the identical tree, so
// partitioned solves are bit-identical across parts {1, 2, 4, 8, ... up to
// 2^reductionDepth} × any worker count, and bit-identical to the serial
// solve.

// DefaultPorosity is the constant porosity the unstructured pressure system
// assumes (the unstructured mesh carries no per-cell porosity field).
const DefaultPorosity = 0.2

// USystem is one backward-Euler step of Eq. (2) on an unstructured mesh,
// linearized around the reference state with frozen face mobility λ:
//
//	(V·φ·ρref·cf/Δt)·δp_K − Σ_L Υ_KL·λ·(δp_L − δp_K) = b_K
//
// The accumulation diagonal makes the matrix strictly SPD.
type USystem struct {
	U *Mesh
	// Mobility is the frozen face mobility λ = ρref/μ.
	Mobility float64
	// Accum is the per-cell accumulation coefficient V·φ·ρref·cf/Δt.
	Accum []float64

	// preMu guards the memoized preconditioner setup state below: the
	// two-level AMG hierarchy (aggregation + factored Galerkin coarse
	// matrix, assembled once per system and reused by every solve and every
	// transient step, serial and partitioned alike) and the Chebyshev
	// spectral bound.
	preMu   sync.Mutex
	amgLvl  *amgLevel
	amgErr  error
	chebTop float64
}

// NewUSystem freezes the coefficients of a backward-Euler step of length dt
// with the given constant porosity (0 selects DefaultPorosity).
func NewUSystem(u *Mesh, fl physics.Fluid, dt, porosity float64) (*USystem, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("umesh: time step must be positive, got %g", dt)
	}
	if porosity == 0 {
		porosity = DefaultPorosity
	}
	if porosity < 0 || porosity > 1 {
		return nil, fmt.Errorf("umesh: porosity %g outside (0, 1]", porosity)
	}
	acc := make([]float64, u.NumCells)
	for i := range acc {
		acc[i] = u.Volume[i] * porosity * fl.RhoRef * fl.Compressibility / dt
		if acc[i] <= 0 {
			return nil, fmt.Errorf("umesh: non-positive accumulation at cell %d (volume %g, cf %g)",
				i, u.Volume[i], fl.Compressibility)
		}
	}
	return &USystem{U: u, Mobility: fl.RhoRef / fl.Viscosity, Accum: acc}, nil
}

// Validate checks the system against its mesh.
func (s *USystem) Validate() error {
	if s.U == nil {
		return fmt.Errorf("umesh: system has no mesh")
	}
	if len(s.Accum) != s.U.NumCells {
		return fmt.Errorf("umesh: accumulation covers %d cells, mesh has %d", len(s.Accum), s.U.NumCells)
	}
	if s.Mobility <= 0 || math.IsNaN(s.Mobility) {
		return fmt.Errorf("umesh: non-positive mobility %g", s.Mobility)
	}
	return nil
}

// Diagonal returns the matrix diagonal for the Jacobi preconditioner:
// accumulation plus the sum of the cell's face conductances, accumulated in
// adjacency order (the same order the operators use).
func (s *USystem) Diagonal() []float64 {
	d := make([]float64, s.U.NumCells)
	lam := s.Mobility
	for c := 0; c < s.U.NumCells; c++ {
		_, trans := s.U.halfFaces(c)
		sum := s.Accum[c]
		for _, t := range trans {
			sum += t * lam
		}
		d[c] = sum
	}
	return d
}

// treeFold sums v by a fixed binary tree split at n/2 — a function of the
// slice length only. It is the one reduction combiner of the solve path:
// the serial reference and every PartOperator fold their canonical block
// partials through it, so the summation tree is identical for every part
// and worker count.
func treeFold(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	case 2:
		return v[0] + v[1]
	}
	mid := len(v) / 2
	return treeFold(v[:mid]) + treeFold(v[mid:])
}

// hostFluxRow is the serial flux-row kernel: the cell's face fluxes in
// adjacency order, with degree-4 rows (the bulk of every mesh here) summed
// pairwise as (f0+f1)+(f2+f3) — the exact association the partitioned
// fluxRow kernel uses, which is what keeps host and resident applications
// bit-identical.
// The degree-4 body is kept loop-free so it inlines into the sweep; the
// general-degree tail lives in hostFluxRowSlow.
func hostFluxRow(nbrs []int32, trans []float64, lam float64, x []float64, xc float64) float64 {
	if len(nbrs) == 4 && len(trans) == 4 {
		f0 := trans[0] * lam * (x[nbrs[0]] - xc)
		f1 := trans[1] * lam * (x[nbrs[1]] - xc)
		f2 := trans[2] * lam * (x[nbrs[2]] - xc)
		f3 := trans[3] * lam * (x[nbrs[3]] - xc)
		return (f0 + f1) + (f2 + f3)
	}
	return hostFluxRowSlow(nbrs, trans, lam, x, xc)
}

//go:noinline
func hostFluxRowSlow(nbrs []int32, trans []float64, lam float64, x []float64, xc float64) float64 {
	flux := 0.0
	for i, nb := range nbrs {
		flux += trans[i] * lam * (x[nb] - xc)
	}
	return flux
}

// UHostOperator applies the system serially in float64 — the reference the
// partitioned operator must match bit-for-bit.
type UHostOperator struct {
	Sys *USystem
}

// Size implements solver.Operator.
func (h *UHostOperator) Size() int { return h.Sys.U.NumCells }

// Apply computes dst = A·x with the cell-based sweep in adjacency order.
func (h *UHostOperator) Apply(dst, x []float64) error {
	u := h.Sys.U
	if len(dst) != len(x) || len(x) != u.NumCells {
		return fmt.Errorf("umesh: host operator size mismatch")
	}
	lam := h.Sys.Mobility
	for c := 0; c < u.NumCells; c++ {
		nbrs, trans := u.halfFaces(c)
		xc := x[c]
		dst[c] = h.Sys.Accum[c]*xc - hostFluxRow(nbrs, trans, lam, x, xc)
	}
	return nil
}

// serialReference is the serial solve-side operator: UHostOperator plus the
// canonical blocked reduction, so serial Krylov solves take their inner
// products with exactly the summation tree the partitioned part-resident
// solves use — what keeps the golden comparison bit-exact.
type serialReference struct {
	*UHostOperator
	order  []int32
	blocks []int32   // canonical block start offsets into order
	sums   []float64 // per-block partials, treeFolded
}

// newSerialReference builds the serial reference operator for a system.
func newSerialReference(sys *USystem) *serialReference {
	blocks := canonicalBlocks(sys.U.NumCells, reductionDepth)
	return &serialReference{
		UHostOperator: &UHostOperator{Sys: sys},
		order:         CanonicalOrder(sys.U),
		blocks:        blocks,
		sums:          make([]float64, len(blocks)),
	}
}

// Dot implements solver.Reducer with the canonical blocked sum: products
// accumulate flat in canonical order within each block, block partials fold
// through the fixed binary tree — the exact reduction every PartOperator
// performs, for every part count.
func (s *serialReference) Dot(a, b []float64) float64 {
	for bi := range s.blocks {
		lo, hi := int(s.blocks[bi]), len(s.order)
		if bi+1 < len(s.blocks) {
			hi = int(s.blocks[bi+1])
		}
		acc := 0.0
		for k := lo; k < hi; k++ {
			c := s.order[k]
			acc += a[c] * b[c]
		}
		s.sums[bi] = acc
	}
	return treeFold(s.sums)
}

// nbrEntry is one interleaved CSR adjacency entry of the operator's
// premultiplied rows: the neighbor's local index and the face conductance
// times the frozen mobility (w = Υ·λ), packed so a row sweep streams one
// 16-byte record per face and skips one multiply.
type nbrEntry struct {
	t  float64 // premultiplied weight Υ·λ
	li int32
	_  int32
}

// fluxRow evaluates one premultiplied adjacency row: degree-4 rows pairwise
// as (f0+f1)+(f2+f3), everything else flat in adjacency order — mirrored
// exactly by hostFluxRow.
func fluxRow(row []nbrEntry, x []float64, xc float64) float64 {
	if len(row) == 4 {
		f0 := row[0].t * (x[row[0].li] - xc)
		f1 := row[1].t * (x[row[1].li] - xc)
		f2 := row[2].t * (x[row[2].li] - xc)
		f3 := row[3].t * (x[row[3].li] - xc)
		return (f0 + f1) + (f2 + f3)
	}
	flux := 0.0
	for _, e := range row {
		flux += e.t * (x[e.li] - xc)
	}
	return flux
}

// opSend is one precompiled outgoing operator transfer: the owned local
// indices to read and the base of the receiver's halo block for this source
// — the send phase writes x[idx[j]] straight to the receiver's vector at
// dstBase+j. The index list is shared with the engine's float32 send plan.
type opSend struct {
	dst     int
	dstBase int
	idx     []int32
}

// opPart is the operator's per-part working set: the resident Krylov
// vectors in the part's compact local layout, the global-slice Apply's
// mirror, the resident inverse diagonal, and the premultiplied adjacency.
// Everything is O(owned+halo) per vector.
type opPart struct {
	// x is the local mirror of the global-slice Apply's input.
	x []float64
	// vecs holds the resident vectors, each owned cells first then halo
	// blocks. Only Apply maintains halo entries (for its input vector); all
	// vector algebra runs over owned entries.
	vecs [][]float64
	// invDiag is the resident Jacobi inverse diagonal over owned cells.
	invDiag []float64
	// accum is the system's accumulation coefficient in the part's compact
	// layout, so the row sweep never chases a global index.
	accum []float64
	// rows is the operator-owned premultiplied adjacency (w = Υ·λ) over
	// owned rows, local indices — what every float64 row sweep streams.
	rows  [][]nbrEntry
	sends []opSend
	// blkLo/blkHi/blkOut segment the part's owned range into its canonical
	// reduction blocks (compact-index [lo, hi) → blockSums[out]): every
	// reduction accumulates flat within a block and the block partials fold
	// through treeFold, the summation tree that is identical for every part
	// count.
	blkLo, blkHi, blkOut []int32
	comm                 CommCounters

	// Preconditioner-resident state (SetPrecond): the matrix diagonal in
	// the compact layout (SSOR's backward sweep), the precompiled SSOR
	// triangular index lists, the Chebyshev direction vector, the scratch
	// destination of in-preconditioner operator applications, and the
	// part-local view of the AMG aggregates (global aggregate ids, member
	// CSR over local indices, owned-cell → aggregate).
	dLoc                              []float64
	ssorLoPtr, ssorUpPtr              []int32
	ssorLoI, ssorUpI                  []int32
	ssorLoW, ssorUpW                  []float64
	pd, pw                            []float64
	aggID, aggPtr, aggCells, aggOfLoc []int32
}

// PhaseSeconds is the per-phase wall-clock breakdown of a part-resident
// solve, accumulated on the orchestrator around each barriered step:
//
//   - Exchange: whole-vector transfers between global and part layouts —
//     the solve's one scatter (LoadVec2) and one gather (StoreVec);
//   - Compute: the operator-application steps (interior and frontier flux
//     rows; the per-neighbor direct-write halo pushes ride inside the
//     interior step, overlapped with its row sweep);
//   - Reduce: the fused vector-algebra steps (axpy/dot/preconditioner
//     updates with their per-block partial reductions and tree folds).
type PhaseSeconds struct {
	Exchange float64 `json:"exchange"`
	Compute  float64 `json:"compute"`
	Reduce   float64 `json:"reduce"`
}

// Add accumulates another breakdown.
func (p *PhaseSeconds) Add(q PhaseSeconds) {
	p.Exchange += q.Exchange
	p.Compute += q.Compute
	p.Reduce += q.Reduce
}

// Total is the summed breakdown.
func (p PhaseSeconds) Total() float64 { return p.Exchange + p.Compute + p.Reduce }

// PartOperator is the matrix-free part-resident operator: it implements
// solver.Operator on global slices (each Apply pays a scatter and gather),
// solver.VectorSpace, the space every solve on it runs in — the whole Krylov
// working set stays in the parts' compact layouts and a solve scatters once
// and gathers once — and solver.ProgramSpace (program.go), which compiles a
// whole Krylov iteration into one exec.Plan. Steady-state Apply, every fused
// vector phase and every compiled plan execution allocate nothing.
//
// A PartOperator is driven by one goroutine at a time. With an RCB
// partition of at most reductionDepth (8) bisection levels — up to 256
// parts — its reductions are bit-identical for every part count (see
// CanonicalOrder). Deeper or hand-built partitions fall back to a
// per-part fold: still deterministic for that partition, but tied to its
// Owned order rather than part-count independent.
type PartOperator struct {
	Sys *USystem

	e     *PartEngine
	parts []*opPart

	// blockSums/blockSums2 hold the canonical block partials of the current
	// reduction (disjoint per-part writes), treeFolded on the host.
	blockSums, blockSums2 []float64

	// Staged phase inputs (set per call; closures are pre-built so dispatch
	// allocates nothing). ga/gb/gdst stage global slices (global-slice
	// Apply, scatter/gather, diagonal); v1..v4 stage resident vector handles;
	// sc1/sc2 stage scalars; applyDot arms the fused dot sweep of an
	// application's frontier phase.
	ga, gb, gdst, diag []float64
	v1, v2, v3, v4     int
	sc1, sc2           float64
	applyDot           bool

	// usePre selects the resident Jacobi preconditioner; false means
	// identity (SetPrecondDiag(nil)).
	usePre bool
	// preKind is the installed preconditioner ladder rung (SetPrecond);
	// PrecondVec/PrecondDotVec dispatch on it. The default covers the
	// Jacobi/identity path through usePre.
	preKind solver.PrecondKind
	// applyScratch redirects the current application sweep's destination to
	// each part's pw scratch — the in-preconditioner applications (Chebyshev
	// and AMG run A·z on scratch without burning a solver vector).
	applyScratch bool
	// aligned records that the partition's reduction blocks are the global
	// canonical blocks (compileReduction) — the precondition for the
	// block-structured rungs.
	aligned bool
	// split records that at least one part exchanges halo data or has
	// frontier rows: applications then need a second (frontier) phase after
	// the barrier that orders the halo writes. parts=1 runs single-phase.
	split bool
	// cheb holds the installed Chebyshev coefficients; amg the installed
	// level with its shared coarse vectors.
	cheb             chebCoeffs
	amg              *amgLevel
	coarseR, coarseE []float64

	nVecs int

	// baseBarriers/baseDispatches snapshot the pool counters at operator
	// construction, so Comm reports this operator's own synchronization.
	baseBarriers, baseDispatches uint64

	fnSliceSend, fnSliceRecv, fnDiag                 func(int) error
	fnLoad2, fnStore, fnSetPre                       func(int) error
	fnApplySend, fnApplyRecv                         func(int) error
	fnDot, fnDot2, fnAxpy, fnAxpy2, fnXpby, fnCopy   func(int) error
	fnCGStep, fnBicgP, fnSubAxpyDot, fnPre, fnPreDot func(int) error
	fnSetDiag, fnSSOR, fnChebInit, fnChebStep        func(int) error
	fnAMGPre, fnAMGRestrict, fnAMGProlong, fnAMGPost func(int) error

	// Applications counts operator applications (engine runs of the solve —
	// the §3 "Algorithm 1 applied N times" pattern, driven by Krylov).
	Applications int
	// Comm accumulates halo traffic and synchronization over all
	// applications. Float64 payloads are counted as two 32-bit words each,
	// keeping the word-level accounting comparable with the engine's float32
	// counters.
	Comm CommCounters
	// Scatters and Gathers count whole-vector global transfers — the
	// part-resident acceptance metric: exactly one of each per solve.
	Scatters, Gathers int
	// Phase is the accumulated per-phase wall-clock breakdown.
	Phase PhaseSeconds
}

// NewPartOperator builds the part-resident operator on an existing engine.
// The operator shares the engine's pool, partition and renumbering; the
// engine stays usable for residual runs.
func NewPartOperator(e *PartEngine, sys *USystem) (*PartOperator, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.U != e.u {
		return nil, fmt.Errorf("umesh: operator system is not the engine's mesh")
	}
	o := &PartOperator{Sys: sys, e: e}
	o.baseBarriers, o.baseDispatches = e.pool.Counters()
	lam := sys.Mobility
	o.parts = make([]*opPart, len(e.parts))
	for me, ps := range e.parts {
		op := &opPart{
			x:       make([]float64, ps.nOwned+ps.nHalo),
			invDiag: make([]float64, ps.nOwned),
			accum:   make([]float64, ps.nOwned),
		}
		for i := 0; i < ps.nOwned; i++ {
			op.accum[i] = sys.Accum[ps.globalOf[i]]
		}
		// Premultiplied interleaved adjacency: one entry stream, one slice
		// header per row.
		entries := make([]nbrEntry, len(ps.nbrLocal))
		for j := range ps.nbrLocal {
			entries[j] = nbrEntry{t: ps.nbrTrans[j] * lam, li: ps.nbrLocal[j]}
		}
		op.rows = make([][]nbrEntry, ps.nOwned)
		for i := 0; i < ps.nOwned; i++ {
			op.rows[i] = entries[ps.rowStart[i]:ps.rowStart[i+1]]
		}
		for _, sp := range ps.sends {
			op.sends = append(op.sends, opSend{dst: sp.dst, dstBase: sp.dstBase, idx: sp.idx})
		}
		o.parts[me] = op
		if len(ps.sends) > 0 || len(ps.recvs) > 0 || len(ps.frontier) > 0 {
			o.split = true
		}
	}
	o.compileReduction()
	o.fnSliceSend = o.phaseSliceSend
	o.fnSliceRecv = o.phaseSliceRecv
	o.fnDiag = o.phaseDiag
	o.fnLoad2 = o.phaseLoad2
	o.fnStore = o.phaseStore
	o.fnSetPre = o.phaseSetPre
	o.fnApplySend = o.phaseApplySend
	o.fnApplyRecv = o.phaseApplyRecv
	o.fnDot = o.phaseDot
	o.fnDot2 = o.phaseDot2
	o.fnAxpy = o.phaseAxpy
	o.fnAxpy2 = o.phaseAxpy2
	o.fnXpby = o.phaseXpby
	o.fnCopy = o.phaseCopy
	o.fnCGStep = o.phaseCGStep
	o.fnBicgP = o.phaseBicgP
	o.fnSubAxpyDot = o.phaseSubAxpyDot
	o.fnPre = o.phasePre
	o.fnPreDot = o.phasePreDot
	o.fnSetDiag = o.phaseSetDiag
	o.fnSSOR = o.phaseSSOR
	o.fnChebInit = o.phaseChebInit
	o.fnChebStep = o.phaseChebStep
	o.fnAMGPre = o.phaseAMGPre
	o.fnAMGRestrict = o.phaseAMGRestrict
	o.fnAMGProlong = o.phaseAMGProlong
	o.fnAMGPost = o.phaseAMGPost
	return o, nil
}

// Size implements solver.Operator.
func (o *PartOperator) Size() int { return o.e.u.NumCells }

// run dispatches one barriered phase and charges its wall-clock to a
// breakdown bucket.
func (o *PartOperator) run(fn func(int) error, bucket *float64) error {
	start := time.Now()
	err := o.e.pool.Run(fn)
	*bucket += time.Since(start).Seconds()
	return err
}

// compileReduction assigns each part its canonical reduction blocks. With a
// canonical RCB partition of at most reductionDepth levels, every part
// boundary is a block boundary, so the parts share the one global block
// structure and the fold is part-count independent. Otherwise (hand-built
// partition, or deeper than the block tree) each part's whole owned range
// becomes one block — still deterministic for that partition, folded in
// part order.
func (o *PartOperator) compileReduction() {
	p := o.e.part
	starts := make([]int, p.NumParts+1)
	for me, owned := range p.Owned {
		starts[me+1] = starts[me] + len(owned)
	}
	blocks := canonicalBlocks(o.e.u.NumCells, reductionDepth)
	aligned := p.canonical
	if aligned {
		at := make(map[int32]bool, len(blocks))
		for _, b := range blocks {
			at[b] = true
		}
		for me := 1; me < p.NumParts; me++ {
			if !at[int32(starts[me])] {
				aligned = false
				break
			}
		}
	}
	o.aligned = aligned
	if !aligned {
		o.blockSums = make([]float64, p.NumParts)
		o.blockSums2 = make([]float64, p.NumParts)
		for me, op := range o.parts {
			op.blkLo = []int32{0}
			op.blkHi = []int32{int32(o.e.parts[me].nOwned)}
			op.blkOut = []int32{int32(me)}
		}
		return
	}
	o.blockSums = make([]float64, len(blocks))
	o.blockSums2 = make([]float64, len(blocks))
	me := 0
	for bi, lo := range blocks {
		hi := int32(o.e.u.NumCells)
		if bi+1 < len(blocks) {
			hi = blocks[bi+1]
		}
		for int(lo) >= starts[me+1] {
			me++
		}
		op := o.parts[me]
		op.blkLo = append(op.blkLo, lo-int32(starts[me]))
		op.blkHi = append(op.blkHi, hi-int32(starts[me]))
		op.blkOut = append(op.blkOut, int32(bi))
	}
}

// fold combines the block partials through the fixed binary tree — the
// canonical reduction every inner product of the operator returns.
func (o *PartOperator) fold() float64 {
	return treeFold(o.blockSums)
}

func (o *PartOperator) fold2() (float64, float64) {
	return treeFold(o.blockSums), treeFold(o.blockSums2)
}

// finishApply folds the communication counters after an application.
func (o *PartOperator) finishApply() {
	o.Applications++
	total := CommCounters{}
	for _, op := range o.parts {
		total.HaloWords += op.comm.HaloWords
		total.Messages += op.comm.Messages
	}
	o.Comm = total
	o.syncCounters()
}

// syncCounters refreshes the operator's barrier/dispatch accounting from the
// pool's lifetime counters.
func (o *PartOperator) syncCounters() {
	b, d := o.e.pool.Counters()
	o.Comm.Barriers = b - o.baseBarriers
	o.Comm.Dispatches = d - o.baseDispatches
}

// pushHalo writes the part's planned owned values of one vector straight
// into each neighbor's halo block of the same vector — the coalesced
// direct-write exchange: one contiguous write region per (src, dst) pair,
// no intermediate buffer. xv selects the resident vector; xv < 0 selects
// the global-slice Apply's mirror. The destination ranges are disjoint
// between all senders and from every owned range, so the concurrent writes
// are race-free; the step barrier orders them before the frontier reads.
func (o *PartOperator) pushHalo(op *opPart, xv int) {
	var x []float64
	if xv < 0 {
		x = op.x
	} else {
		x = op.vecs[xv]
	}
	for si := range op.sends {
		sp := &op.sends[si]
		var dst []float64
		if xv < 0 {
			dst = o.parts[sp.dst].x
		} else {
			dst = o.parts[sp.dst].vecs[xv]
		}
		base := sp.dstBase
		for j, li := range sp.idx {
			dst[base+j] = x[li]
		}
		op.comm.HaloWords += 2 * uint64(len(sp.idx))
		op.comm.Messages++
	}
}

// ---------------------------------------------------------------------------
// Global-slice Operator (one scatter+gather per Apply)
// ---------------------------------------------------------------------------

// Apply computes dst = A·x through one partitioned engine application on
// global slices: load+push+interior-compute, barrier, frontier-compute.
// Steady state allocates nothing. Part-resident solves use ApplyVec instead,
// which skips the per-application scatter and gather.
func (o *PartOperator) Apply(dst, x []float64) error {
	if len(dst) != len(x) || len(x) != o.e.u.NumCells {
		return fmt.Errorf("umesh: partitioned operator size mismatch")
	}
	o.ga, o.gdst = x, dst
	if err := o.run(o.fnSliceSend, &o.Phase.Compute); err != nil {
		return err
	}
	if o.split {
		if err := o.run(o.fnSliceRecv, &o.Phase.Compute); err != nil {
			return err
		}
	}
	o.finishApply()
	return nil
}

// fluxRowsGlobal evaluates the listed owned rows into the staged global
// destination. It reads the same premultiplied rows as the resident sweeps,
// so the two Apply paths always evaluate the same matrix.
func (o *PartOperator) fluxRowsGlobal(ps *partState, op *opPart, rows []int32) {
	accum := op.accum
	for _, i := range rows {
		xc := op.x[i]
		o.gdst[ps.globalOf[i]] = accum[i]*xc - fluxRow(op.rows[i], op.x, xc)
	}
}

// phaseSliceSend loads the part's owned entries from the global vector,
// pushes its halo values to the neighbors, then computes the interior rows.
func (o *PartOperator) phaseSliceSend(shard int) error {
	ps, op := o.e.parts[shard], o.parts[shard]
	for i := 0; i < ps.nOwned; i++ {
		op.x[i] = o.ga[ps.globalOf[i]]
	}
	o.pushHalo(op, -1)
	o.fluxRowsGlobal(ps, op, ps.interior)
	return nil
}

// phaseSliceRecv finishes the frontier rows once the barrier has ordered the
// neighbors' halo writes.
func (o *PartOperator) phaseSliceRecv(shard int) error {
	ps, op := o.e.parts[shard], o.parts[shard]
	o.fluxRowsGlobal(ps, op, ps.frontier)
	return nil
}

// Diagonal computes the Jacobi diagonal with the partitioned runtime: each
// part accumulates its owned rows in CSR order into the global diagonal —
// bit-identical to USystem.Diagonal for every part count.
func (o *PartOperator) Diagonal() []float64 {
	d := make([]float64, o.e.u.NumCells)
	o.diag = d
	_ = o.e.pool.Run(o.fnDiag)
	return d
}

// phaseDiag accumulates one part's diagonal rows.
func (o *PartOperator) phaseDiag(shard int) error {
	ps := o.e.parts[shard]
	lam := o.Sys.Mobility
	for i := 0; i < ps.nOwned; i++ {
		g := ps.globalOf[i]
		sum := o.Sys.Accum[g]
		for j := ps.rowStart[i]; j < ps.rowStart[i+1]; j++ {
			sum += ps.nbrTrans[j] * lam
		}
		o.diag[g] = sum
	}
	return nil
}

// ---------------------------------------------------------------------------
// Part-resident VectorSpace
// ---------------------------------------------------------------------------

// Reserve implements solver.VectorSpace: it grows each part's resident
// vector pool to n vectors. Growing allocates; re-reserving does not.
func (o *PartOperator) Reserve(n int) {
	if n <= o.nVecs {
		return
	}
	for me, op := range o.parts {
		ps := o.e.parts[me]
		for len(op.vecs) < n {
			op.vecs = append(op.vecs, make([]float64, ps.nOwned+ps.nHalo))
		}
	}
	o.nVecs = n
}

// LoadVec2 scatters two global vectors into resident vectors in one phase —
// the solve's single scatter.
func (o *PartOperator) LoadVec2(v1 solver.Vec, src1 []float64, v2 solver.Vec, src2 []float64) {
	o.v1, o.ga, o.v2, o.gb = int(v1), src1, int(v2), src2
	_ = o.run(o.fnLoad2, &o.Phase.Exchange)
	o.Scatters++
}

func (o *PartOperator) phaseLoad2(shard int) error {
	ps, op := o.e.parts[shard], o.parts[shard]
	a, b := op.vecs[o.v1], op.vecs[o.v2]
	for i := 0; i < ps.nOwned; i++ {
		g := ps.globalOf[i]
		a[i] = o.ga[g]
		b[i] = o.gb[g]
	}
	return nil
}

// StoreVec gathers a resident vector into global order — the solve's single
// gather.
func (o *PartOperator) StoreVec(dst []float64, v solver.Vec) {
	o.v1, o.gdst = int(v), dst
	_ = o.run(o.fnStore, &o.Phase.Exchange)
	o.Gathers++
}

func (o *PartOperator) phaseStore(shard int) error {
	ps, op := o.e.parts[shard], o.parts[shard]
	a := op.vecs[o.v1]
	for i := 0; i < ps.nOwned; i++ {
		o.gdst[ps.globalOf[i]] = a[i]
	}
	return nil
}

// SetPrecondDiag installs the resident Jacobi inverse diagonal (z_i =
// (1/d_i)·r_i, the same expression JacobiPrecond applies). A nil diag
// selects the identity. The diagonal is validated and reloaded on every
// call, once per solve, so a caller mutating the diag contents between
// solves can never leave a stale inverse behind; the cost is one O(owned)
// phase per solve.
func (o *PartOperator) SetPrecondDiag(diag []float64) error {
	o.preKind = solver.PrecondDefault
	if diag == nil {
		o.usePre = false
		return nil
	}
	if len(diag) != o.e.u.NumCells {
		return fmt.Errorf("umesh: preconditioner diagonal covers %d cells, mesh has %d", len(diag), o.e.u.NumCells)
	}
	for i, d := range diag {
		if d == 0 || math.IsNaN(d) {
			return fmt.Errorf("umesh: zero/NaN diagonal entry at %d", i)
		}
	}
	o.usePre = true
	o.ga = diag
	_ = o.run(o.fnSetPre, &o.Phase.Reduce)
	return nil
}

func (o *PartOperator) phaseSetPre(shard int) error {
	ps, op := o.e.parts[shard], o.parts[shard]
	for i := 0; i < ps.nOwned; i++ {
		op.invDiag[i] = 1 / o.ga[ps.globalOf[i]]
	}
	return nil
}

// ApplyVec computes dst = A·x resident: fused push+interior, barrier,
// frontier. No global vector is touched.
func (o *PartOperator) ApplyVec(dst, x solver.Vec) error {
	o.applyDot = false
	o.v1, o.v2 = int(dst), int(x)
	if err := o.run(o.fnApplySend, &o.Phase.Compute); err != nil {
		return err
	}
	if o.split {
		if err := o.run(o.fnApplyRecv, &o.Phase.Compute); err != nil {
			return err
		}
	}
	o.finishApply()
	return nil
}

// ApplyDotVec computes dst = A·x and returns ⟨w, dst⟩: the inner product is
// folded into the frontier phase as a compact-order sweep, so the fused
// application needs no extra barrier.
func (o *PartOperator) ApplyDotVec(dst, x, w solver.Vec) (float64, error) {
	o.applyDot = true
	o.v1, o.v2, o.v3 = int(dst), int(x), int(w)
	if err := o.run(o.fnApplySend, &o.Phase.Compute); err != nil {
		return 0, err
	}
	if o.split {
		if err := o.run(o.fnApplyRecv, &o.Phase.Compute); err != nil {
			return 0, err
		}
	}
	o.finishApply()
	return o.fold(), nil
}

// fluxRowsLocal evaluates the listed owned rows of dst = A·x in the part's
// local layout, in the serial adjacency order per row.
func (o *PartOperator) fluxRowsLocal(ps *partState, op *opPart, x, dst []float64, rows []int32) {
	accum := op.accum
	for _, i := range rows {
		xc := x[i]
		dst[i] = accum[i]*xc - fluxRow(op.rows[i], x, xc)
	}
}

// fluxRowsSeq is fluxRowsLocal over the whole owned range without the row
// indirection — the path a part with no frontier (notably parts=1) takes.
func (o *PartOperator) fluxRowsSeq(ps *partState, op *opPart, x, dst []float64) {
	accum := op.accum
	for i := 0; i < ps.nOwned; i++ {
		xc := x[i]
		dst[i] = accum[i]*xc - fluxRow(op.rows[i], x, xc)
	}
}

// fluxRowsSeqDot is the fully fused no-frontier path: every owned row is
// computed sequentially in compact order with the inner product ⟨w, dst⟩
// accumulated per canonical block inside the same sweep — identical values
// and summation tree as the separate blocked sweep, one less memory pass.
func (o *PartOperator) fluxRowsSeqDot(ps *partState, op *opPart, x, dst, w []float64) {
	accum := op.accum
	for blk := range op.blkLo {
		acc := 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			xc := x[i]
			d := accum[i]*xc - fluxRow(op.rows[i], x, xc)
			dst[i] = d
			acc += w[i] * d
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

// applySend is the first application phase: push the halo values of the
// resident input vector to the neighbors, then compute the interior rows. A
// part with no frontier computes everything here — fused with the
// inner-product sweep when one is armed — leaving the frontier phase
// trivial. dstv resolves through scratch to the part's preconditioner
// scratch while a rung's internal application is running.
func (o *PartOperator) applySend(shard, xv, dstv, wv int, withDot, scratch bool) {
	ps, op := o.e.parts[shard], o.parts[shard]
	x := op.vecs[xv]
	o.pushHalo(op, xv)
	dst := op.pw
	if !scratch {
		dst = op.vecs[dstv]
	}
	switch {
	case len(ps.frontier) > 0:
		o.fluxRowsLocal(ps, op, x, dst, ps.interior)
	case withDot:
		o.fluxRowsSeqDot(ps, op, x, dst, op.vecs[wv])
	default:
		o.fluxRowsSeq(ps, op, x, dst)
	}
}

// applyFrontier is the second application phase: the barrier before it
// ordered every neighbor's halo write, so it finishes the frontier rows and
// (when armed) sweeps the fused inner product in compact order.
func (o *PartOperator) applyFrontier(shard, xv, dstv, wv int, withDot, scratch bool) {
	ps, op := o.e.parts[shard], o.parts[shard]
	if len(ps.frontier) == 0 {
		return // everything (dot included) already ran in the send phase
	}
	x := op.vecs[xv]
	dst := op.pw
	if !scratch {
		dst = op.vecs[dstv]
	}
	o.fluxRowsLocal(ps, op, x, dst, ps.frontier)
	if withDot {
		w := op.vecs[wv]
		for b := range op.blkLo {
			acc := 0.0
			for i := op.blkLo[b]; i < op.blkHi[b]; i++ {
				acc += w[i] * dst[i]
			}
			o.blockSums[op.blkOut[b]] = acc
		}
	}
}

func (o *PartOperator) phaseApplySend(shard int) error {
	o.applySend(shard, o.v2, o.v1, o.v3, o.applyDot, o.applyScratch)
	return nil
}

func (o *PartOperator) phaseApplyRecv(shard int) error {
	o.applyFrontier(shard, o.v2, o.v1, o.v3, o.applyDot, o.applyScratch)
	return nil
}

// CopyVec copies src's owned entries into dst.
func (o *PartOperator) CopyVec(dst, src solver.Vec) {
	o.v1, o.v2 = int(dst), int(src)
	_ = o.run(o.fnCopy, &o.Phase.Reduce)
}

func (o *PartOperator) shardCopy(shard, dstv, srcv int) {
	ps, op := o.e.parts[shard], o.parts[shard]
	copy(op.vecs[dstv][:ps.nOwned], op.vecs[srcv][:ps.nOwned])
}

func (o *PartOperator) phaseCopy(shard int) error {
	o.shardCopy(shard, o.v1, o.v2)
	return nil
}

// DotVec returns ⟨a, b⟩ as per-block compact-order partials treeFolded.
func (o *PartOperator) DotVec(a, b solver.Vec) float64 {
	o.v1, o.v2 = int(a), int(b)
	_ = o.run(o.fnDot, &o.Phase.Reduce)
	return o.fold()
}

func (o *PartOperator) shardDot(shard, av, bv int) {
	op := o.parts[shard]
	a, b := op.vecs[av], op.vecs[bv]
	for blk := range op.blkLo {
		acc := 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			acc += a[i] * b[i]
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

func (o *PartOperator) phaseDot(shard int) error {
	o.shardDot(shard, o.v1, o.v2)
	return nil
}

// Dot2Vec returns ⟨a, x⟩ and ⟨a, y⟩ from one fused phase.
func (o *PartOperator) Dot2Vec(a, x, y solver.Vec) (float64, float64) {
	o.v1, o.v2, o.v3 = int(a), int(x), int(y)
	_ = o.run(o.fnDot2, &o.Phase.Reduce)
	return o.fold2()
}

func (o *PartOperator) shardDot2(shard, av, xv, yv int) {
	op := o.parts[shard]
	a, x, y := op.vecs[av], op.vecs[xv], op.vecs[yv]
	for blk := range op.blkLo {
		acc1, acc2 := 0.0, 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			acc1 += a[i] * x[i]
			acc2 += a[i] * y[i]
		}
		o.blockSums[op.blkOut[blk]] = acc1
		o.blockSums2[op.blkOut[blk]] = acc2
	}
}

func (o *PartOperator) phaseDot2(shard int) error {
	o.shardDot2(shard, o.v1, o.v2, o.v3)
	return nil
}

// AxpyVec computes y += α·x.
func (o *PartOperator) AxpyVec(y solver.Vec, alpha float64, x solver.Vec) {
	o.v1, o.v2, o.sc1 = int(y), int(x), alpha
	_ = o.run(o.fnAxpy, &o.Phase.Reduce)
}

func (o *PartOperator) shardAxpy(shard, yv, xv int, alpha float64) {
	ps, op := o.e.parts[shard], o.parts[shard]
	y, x := op.vecs[yv], op.vecs[xv]
	for i := 0; i < ps.nOwned; i++ {
		y[i] += alpha * x[i]
	}
}

func (o *PartOperator) phaseAxpy(shard int) error {
	o.shardAxpy(shard, o.v1, o.v2, o.sc1)
	return nil
}

// Axpy2Vec computes y += α·x + β·z in one expression per element (the
// BiCGStab solution update).
func (o *PartOperator) Axpy2Vec(y solver.Vec, alpha float64, x solver.Vec, beta float64, z solver.Vec) {
	o.v1, o.v2, o.v3, o.sc1, o.sc2 = int(y), int(x), int(z), alpha, beta
	_ = o.run(o.fnAxpy2, &o.Phase.Reduce)
}

func (o *PartOperator) shardAxpy2(shard, yv, xv, zv int, alpha, beta float64) {
	ps, op := o.e.parts[shard], o.parts[shard]
	y, x, z := op.vecs[yv], op.vecs[xv], op.vecs[zv]
	for i := 0; i < ps.nOwned; i++ {
		y[i] += alpha*x[i] + beta*z[i]
	}
}

func (o *PartOperator) phaseAxpy2(shard int) error {
	o.shardAxpy2(shard, o.v1, o.v2, o.v3, o.sc1, o.sc2)
	return nil
}

// XpbyVec computes y = x + β·y (the CG search-direction update).
func (o *PartOperator) XpbyVec(y solver.Vec, beta float64, x solver.Vec) {
	o.v1, o.v2, o.sc1 = int(y), int(x), beta
	_ = o.run(o.fnXpby, &o.Phase.Reduce)
}

func (o *PartOperator) shardXpby(shard, yv, xv int, beta float64) {
	ps, op := o.e.parts[shard], o.parts[shard]
	y, x := op.vecs[yv], op.vecs[xv]
	for i := 0; i < ps.nOwned; i++ {
		y[i] = x[i] + beta*y[i]
	}
}

func (o *PartOperator) phaseXpby(shard int) error {
	o.shardXpby(shard, o.v1, o.v2, o.sc1)
	return nil
}

// SubAxpyDotVec computes dst = a − α·b and returns ⟨dst, dst⟩, fused.
func (o *PartOperator) SubAxpyDotVec(dst, a solver.Vec, alpha float64, b solver.Vec) float64 {
	o.v1, o.v2, o.v3, o.sc1 = int(dst), int(a), int(b), alpha
	_ = o.run(o.fnSubAxpyDot, &o.Phase.Reduce)
	return o.fold()
}

func (o *PartOperator) shardSubAxpyDot(shard, dstv, av, bv int, alpha float64) {
	op := o.parts[shard]
	dst, a, b := op.vecs[dstv], op.vecs[av], op.vecs[bv]
	for blk := range op.blkLo {
		acc := 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			d := a[i] - alpha*b[i]
			dst[i] = d
			acc += d * d
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

func (o *PartOperator) phaseSubAxpyDot(shard int) error {
	o.shardSubAxpyDot(shard, o.v1, o.v2, o.v3, o.sc1)
	return nil
}

// CGStepVec computes x += α·p; r −= α·ap and returns ⟨r, r⟩ — the two CG
// axpys and the residual norm fused into one phase.
func (o *PartOperator) CGStepVec(x solver.Vec, alpha float64, p, r, ap solver.Vec) float64 {
	o.v1, o.v2, o.v3, o.v4, o.sc1 = int(x), int(p), int(r), int(ap), alpha
	_ = o.run(o.fnCGStep, &o.Phase.Reduce)
	return o.fold()
}

func (o *PartOperator) shardCGStep(shard, xv, pv, rv, apv int, alpha float64) {
	op := o.parts[shard]
	x, p, r, ap := op.vecs[xv], op.vecs[pv], op.vecs[rv], op.vecs[apv]
	for blk := range op.blkLo {
		acc := 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc += ri * ri
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

func (o *PartOperator) phaseCGStep(shard int) error {
	o.shardCGStep(shard, o.v1, o.v2, o.v3, o.v4, o.sc1)
	return nil
}

// shardCGStepPre is the fully fused CG tail for elementwise (identity or
// Jacobi) preconditioners: the CG update, the residual norm, the
// preconditioner application z = M⁻¹·r and ⟨r, z⟩, all in one pass. The
// per-element expressions and the per-block accumulation orders are exactly
// those of shardCGStep followed by shardPreDot, so the fusion is invisible
// bitwise.
func (o *PartOperator) shardCGStepPre(shard, xv, pv, rv, apv, zv int, alpha float64) {
	op := o.parts[shard]
	x, p, r, ap, z := op.vecs[xv], op.vecs[pv], op.vecs[rv], op.vecs[apv], op.vecs[zv]
	inv := op.invDiag
	usePre := o.usePre
	for blk := range op.blkLo {
		acc1, acc2 := 0.0, 0.0
		for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc1 += ri * ri
			zi := ri
			if usePre {
				zi = inv[i] * ri
			}
			z[i] = zi
			acc2 += ri * zi
		}
		o.blockSums[op.blkOut[blk]] = acc1
		o.blockSums2[op.blkOut[blk]] = acc2
	}
}

// BicgPVec computes p = r + β·(p − ω·v), the BiCGStab direction update.
func (o *PartOperator) BicgPVec(p, r, v solver.Vec, beta, omega float64) {
	o.v1, o.v2, o.v3, o.sc1, o.sc2 = int(p), int(r), int(v), beta, omega
	_ = o.run(o.fnBicgP, &o.Phase.Reduce)
}

func (o *PartOperator) shardBicgP(shard, pv, rv, vv int, beta, omega float64) {
	ps, op := o.e.parts[shard], o.parts[shard]
	p, r, v := op.vecs[pv], op.vecs[rv], op.vecs[vv]
	for i := 0; i < ps.nOwned; i++ {
		p[i] = r[i] + beta*(p[i]-omega*v[i])
	}
}

func (o *PartOperator) phaseBicgP(shard int) error {
	o.shardBicgP(shard, o.v1, o.v2, o.v3, o.sc1, o.sc2)
	return nil
}

// PrecondVec computes z = M⁻¹·r with the installed preconditioner: the
// Jacobi/identity phase by default, or the SetPrecond rung's fused phase
// sequence.
func (o *PartOperator) PrecondVec(z, r solver.Vec) {
	switch o.preKind {
	case solver.PrecondSSOR:
		o.v1, o.v2 = int(z), int(r)
		_ = o.run(o.fnSSOR, &o.Phase.Reduce)
	case solver.PrecondChebyshev:
		o.chebApplyVec(z, r)
	case solver.PrecondAMG:
		o.amgApplyVec(z, r)
	default:
		o.v1, o.v2 = int(z), int(r)
		_ = o.run(o.fnPre, &o.Phase.Reduce)
	}
}

func (o *PartOperator) shardPre(shard, zv, rv int) {
	ps, op := o.e.parts[shard], o.parts[shard]
	z, r := op.vecs[zv], op.vecs[rv]
	if !o.usePre {
		copy(z[:ps.nOwned], r[:ps.nOwned])
		return
	}
	inv := op.invDiag
	for i := 0; i < ps.nOwned; i++ {
		z[i] = inv[i] * r[i]
	}
}

func (o *PartOperator) phasePre(shard int) error {
	o.shardPre(shard, o.v1, o.v2)
	return nil
}

// PrecondDotVec computes z = M⁻¹·r and returns ⟨r, z⟩. The Jacobi/identity
// default fuses application and reduction into one phase; the ladder rungs
// run their phase sequence and take the canonical blocked DotVec — the same
// ⟨r, z⟩ summation tree the serial reference's separate reduction produces.
func (o *PartOperator) PrecondDotVec(z, r solver.Vec) float64 {
	switch o.preKind {
	case solver.PrecondSSOR, solver.PrecondChebyshev, solver.PrecondAMG:
		o.PrecondVec(z, r)
		return o.DotVec(r, z)
	}
	o.v1, o.v2 = int(z), int(r)
	_ = o.run(o.fnPreDot, &o.Phase.Reduce)
	return o.fold()
}

func (o *PartOperator) shardPreDot(shard, zv, rv int) {
	op := o.parts[shard]
	z, r := op.vecs[zv], op.vecs[rv]
	inv := op.invDiag
	for blk := range op.blkLo {
		acc := 0.0
		if !o.usePre {
			for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
				ri := r[i]
				z[i] = ri
				acc += ri * ri
			}
		} else {
			for i := op.blkLo[blk]; i < op.blkHi[blk]; i++ {
				zi := inv[i] * r[i]
				z[i] = zi
				acc += r[i] * zi
			}
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

func (o *PartOperator) phasePreDot(shard int) error {
	o.shardPreDot(shard, o.v1, o.v2)
	return nil
}

// NewSystemOperator builds the solve-side operator for a partition: the
// serial reference (UHostOperator with the canonical-order reduction) when p
// is nil, otherwise a part-resident PartOperator on a fresh engine. It
// returns the operator, the Jacobi diagonal (computed by the path that will
// apply the matrix), and a close function releasing the engine (a no-op for
// the serial path). Both the transient loop and the massivefv facade build
// their solves through it, so the two paths cannot drift apart.
func NewSystemOperator(u *Mesh, p *Partition, fl physics.Fluid, sys *USystem, workers int) (solver.Operator, []float64, func(), error) {
	if p == nil {
		return newSerialReference(sys), sys.Diagonal(), func() {}, nil
	}
	e, err := NewPartEngine(u, p, fl, EngineOptions{Workers: workers})
	if err != nil {
		return nil, nil, nil, err
	}
	po, err := NewPartOperator(e, sys)
	if err != nil {
		e.Close()
		return nil, nil, nil, err
	}
	return po, po.Diagonal(), e.Close, nil
}

// compile-time interface checks
var (
	_ solver.Operator        = (*UHostOperator)(nil)
	_ solver.Operator        = (*PartOperator)(nil)
	_ solver.VectorSpace     = (*PartOperator)(nil)
	_ solver.ResidentPrecond = (*PartOperator)(nil)
	_ solver.Reducer         = (*serialReference)(nil)
	_ solver.PrecondFactory  = (*serialReference)(nil)
)
