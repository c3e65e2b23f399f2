package umesh

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the persistent partitioned unstructured engine: the one-shot
// ComputeResidualPartitioned prototype rebuilt on the shared phase-program
// execution layer (internal/exec), the same runtime the structured
// core.RunFlatParallel runs on. The differences from the prototype are the
// ones that make the path scale:
//
//   - compact local renumbering: a part's working set is its owned cells
//     plus its halo cells only (O(owned+halo)), never the O(NumCells)
//     global-sized local/seen arrays the prototype allocated per part;
//   - precompiled exchange plans with direct-write delivery: the Partition's
//     send/recv plans are flattened into local index arrays and contiguous
//     halo slots at engine construction, and each send plan additionally
//     resolves the receiver's halo block base — the send phase writes the
//     planned values straight into the neighbor's resident field, one
//     coalesced region per (src, dst) pair, no buffers or channels;
//   - precompiled application plans: each application is one exec.Plan
//     dispatch ([fused perturb+send+interior, frontier]), not one pool
//     round-trip per phase;
//   - communication counters (halo words, messages, barriers, dispatches)
//     mirroring the word-level accounting the structured engines keep.
//
// The residual stays bit-identical to the serial cell-based sweep: every
// owned cell accumulates its faces in exactly the adjacency order of
// ComputeResidualCellBased, on exactly the same float32 pressure values.

// PerturbAmplitude is the shared between-application pressure perturbation
// (Pa) — the same schedule the structured engines apply
// (core.PerturbAmplitude; a test asserts the two constants stay equal).
const PerturbAmplitude float32 = 1000.0

// EngineOptions configures a PartEngine.
type EngineOptions struct {
	// Apps is the number of applications of Algorithm 1 per Run (default 1).
	// The pressure field is perturbed between applications with the shared
	// schedule.
	Apps int
	// Workers sizes the exec.Pool worker set; 0 selects runtime.NumCPU().
	// The pool clamps it to the part count.
	Workers int
	// PerturbAmplitude overrides the shared perturbation amplitude
	// (default PerturbAmplitude).
	PerturbAmplitude float32
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.Apps == 0 {
		o.Apps = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.PerturbAmplitude == 0 {
		o.PerturbAmplitude = PerturbAmplitude
	}
	return o
}

// CommCounters is the engine's communication and synchronization accounting,
// the unstructured mirror of the structured engines' fabric-word counting.
type CommCounters struct {
	// HaloWords is the 32-bit words moved between parts (float64 payloads
	// count as two words each).
	HaloWords uint64
	// Messages is the discrete part-to-part transfers (one per (src, dst)
	// neighbor pair per exchange — the coalesced direct-write regions).
	Messages uint64
	// Barriers is the pool barrier crossings the work performed (one per
	// executed plan step when workers > 1; 0 with one worker, where plans
	// run inline with no synchronization).
	Barriers uint64
	// Dispatches is the orchestrator plan dispatches (one per executed
	// plan, however many steps it carries).
	Dispatches uint64
}

// PartResult is the outcome of one PartEngine.Run.
type PartResult struct {
	// Engine names the executing engine: "umesh-part".
	Engine string
	// NumCells, NumParts, Apps and Workers echo the run configuration
	// (Workers after pool clamping).
	NumCells, NumParts, Apps, Workers int
	// Residual is the final application's residual in global cell order.
	Residual []float64
	// Comm is the total communication and synchronization over the run.
	Comm CommCounters
	// Elapsed is the host wall-clock of the application loop (setup, load
	// and gather excluded, matching core.Result.Elapsed).
	Elapsed time.Duration
}

// CellsUpdated returns total cell updates performed (cells × applications).
func (r *PartResult) CellsUpdated() uint64 {
	return uint64(r.NumCells) * uint64(r.Apps)
}

// HostThroughput returns host cell updates per second.
func (r *PartResult) HostThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CellsUpdated()) / r.Elapsed.Seconds()
}

// sendPlan is one precompiled outgoing transfer: the local owned indices to
// read and the base of the receiver's contiguous halo block for this source.
// The send phase writes pres[idx[j]] straight to the receiver's field at
// dstBase+j — the destination ranges are disjoint between all senders and
// from every owned range, and the step barrier orders the writes before the
// receiver's frontier rows read them.
type sendPlan struct {
	dst     int
	dstBase int
	idx     []int32
}

// recvSlot is one precompiled incoming transfer: halo cells are renumbered
// so each source part's cells occupy one contiguous local range. The slots
// define the halo layout senders resolve their dstBase against.
type recvSlot struct {
	src     int
	base, n int
}

// partState is the compact per-part working set: owned cells first, then
// halo cells grouped by source part. Everything is sized O(owned+halo); no
// field scales with the global cell count (slotBySrc is O(parts), the
// neighbor-rank table any rank of a distributed run would hold).
type partState struct {
	me            int
	nOwned, nHalo int
	globalOf      []int32 // local → global cell id
	pres          []float32
	elev          []float64
	res           []float64 // owned cells only
	rowStart      []int32   // CSR adjacency over owned cells, local indices
	nbrLocal      []int32
	nbrTrans      []float64
	sends         []sendPlan
	recvs         []recvSlot
	// rho caches Density(pres) for every local cell, owned and halo, so
	// each application evaluates ρ once per cell instead of twice per
	// half-face. Owned entries are refreshed in the fused send step, halo
	// entries by the receiver after the exchange barrier; ρ itself never
	// travels between parts.
	rho []float64
	// slotBySrc maps a source part id straight to its recv slot — the
	// precompiled table senders use to resolve their direct-write bases.
	slotBySrc []int32
	// interior lists the owned rows with no halo-cell neighbors and frontier
	// the rest, both in compact order. Interior rows are computable before
	// the barrier that orders the halo writes, so the fused send phase
	// evaluates them alongside the writes; frontier rows wait for the
	// barrier.
	interior, frontier []int32
	comm               CommCounters
}

// PartEngine is the persistent partitioned unstructured engine. Construct it
// once per (mesh, partition, fluid); Run executes a multi-application batch;
// Close stops the worker pool. An engine is driven by one goroutine.
type PartEngine struct {
	u    *Mesh
	part *Partition
	fl   physics.Fluid
	opts EngineOptions

	pool  *exec.Pool
	parts []*partState

	// split records that some part exchanges halo data or has frontier rows;
	// otherwise each application is a single fused step.
	split bool

	// planFirst/planNext are the precompiled application plans: the first
	// application ([send+interior, frontier]) and every subsequent one (the
	// perturbation fused into the send phase — it touches only the part's
	// own owned cells, so it commutes with the neighbors' halo writes).
	planFirst, planNext *exec.Plan

	app int // current application, set before each plan dispatch

	// Pre-built phase closures: dispatching them allocates nothing in the
	// steady state.
	fnSend, fnPerturbSend, fnRecvCompute func(int) error
}

// NewPartEngine compiles the partition into compact per-part states,
// resolves the direct-write exchange bases, precompiles the application
// plans and starts the worker pool.
func NewPartEngine(u *Mesh, p *Partition, fl physics.Fluid, opts EngineOptions) (*PartEngine, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	if len(p.Part) != u.NumCells {
		return nil, fmt.Errorf("umesh: partition covers %d cells, mesh has %d", len(p.Part), u.NumCells)
	}
	opts = opts.withDefaults()
	if opts.Apps < 1 {
		return nil, fmt.Errorf("umesh: applications must be positive, got %d", opts.Apps)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("umesh: workers must be non-negative, got %d", opts.Workers)
	}
	e := &PartEngine{u: u, part: p, fl: fl, opts: opts}
	e.parts = make([]*partState, p.NumParts)
	for me := 0; me < p.NumParts; me++ {
		ps, err := newPartState(u, p, me)
		if err != nil {
			return nil, err
		}
		e.parts[me] = ps
	}
	// Resolve each send plan's direct-write base against the receiver's halo
	// layout. The partition builds sendPlan[src][dst] and recvPlan[dst][src]
	// from the same cell list, so the planned length must match the slot.
	for me, ps := range e.parts {
		if len(ps.sends) > 0 || len(ps.recvs) > 0 || len(ps.frontier) > 0 {
			e.split = true
		}
		for si := range ps.sends {
			sp := &ps.sends[si]
			ds := e.parts[sp.dst]
			slot := int32(-1)
			if me < len(ds.slotBySrc) {
				slot = ds.slotBySrc[me]
			}
			if slot < 0 || ds.recvs[slot].n != len(sp.idx) {
				return nil, fmt.Errorf("umesh: part %d sends %d cells to part %d but the receiver plans no matching halo block", me, len(sp.idx), sp.dst)
			}
			sp.dstBase = ds.recvs[slot].base
		}
	}
	e.pool = exec.NewPool(opts.Workers, p.NumParts)
	e.fnSend = e.phaseSendInterior
	e.fnPerturbSend = e.phasePerturbSendInterior
	e.fnRecvCompute = e.phaseRecvFrontier
	first := []exec.Step{{Phase: e.fnSend}}
	next := []exec.Step{{Phase: e.fnPerturbSend}}
	if e.split {
		first = append(first, exec.Step{Phase: e.fnRecvCompute})
		next = append(next, exec.Step{Phase: e.fnRecvCompute})
	}
	e.planFirst = e.pool.NewPlan(first)
	e.planNext = e.pool.NewPlan(next)
	return e, nil
}

// sortedKeys returns a plan map's part keys in ascending order — the
// deterministic neighbor ordering every precompiled plan uses.
func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// newPartState renumbers one part into its compact local index space and
// precompiles its exchange plans (the direct-write bases are resolved by
// NewPartEngine once every part's halo layout exists).
func newPartState(u *Mesh, p *Partition, me int) (*partState, error) {
	owned := p.Owned[me]
	ps := &partState{me: me, nOwned: len(owned)}

	// Local renumbering: owned cells first (in Owned order), then each
	// source part's halo cells as one contiguous block, sources ascending.
	localOf := make(map[int]int32, len(owned))
	ps.globalOf = make([]int32, 0, len(owned))
	for i, c := range owned {
		localOf[c] = int32(i)
		ps.globalOf = append(ps.globalOf, int32(c))
	}
	for _, src := range sortedKeys(p.recvPlan[me]) {
		cells := p.recvPlan[me][src]
		ps.recvs = append(ps.recvs, recvSlot{src: src, base: len(ps.globalOf), n: len(cells)})
		for _, c := range cells {
			if _, dup := localOf[c]; dup {
				return nil, fmt.Errorf("umesh: part %d receives cell %d twice", me, c)
			}
			localOf[c] = int32(len(ps.globalOf))
			ps.globalOf = append(ps.globalOf, int32(c))
		}
		ps.nHalo += len(cells)
	}

	// Compact fields — O(owned+halo) words, never O(NumCells).
	n := len(ps.globalOf)
	ps.pres = make([]float32, n)
	ps.rho = make([]float64, n)
	ps.elev = make([]float64, n)
	for i, g := range ps.globalOf {
		ps.elev[i] = u.Elev[g]
	}
	ps.res = make([]float64, ps.nOwned)

	// CSR adjacency over local indices, preserving the exact per-cell
	// neighbor order of the serial cell-based sweep.
	ps.rowStart = make([]int32, ps.nOwned+1)
	for i, c := range owned {
		ps.rowStart[i+1] = ps.rowStart[i] + int32(u.Degree(c))
	}
	ps.nbrLocal = make([]int32, ps.rowStart[ps.nOwned])
	ps.nbrTrans = make([]float64, ps.rowStart[ps.nOwned])
	k := 0
	for _, c := range owned {
		nbrs, trans := u.halfFaces(c)
		for j, nb := range nbrs {
			li, ok := localOf[int(nb)]
			if !ok {
				return nil, fmt.Errorf("umesh: part %d: neighbor %d of owned cell %d is neither owned nor planned halo", me, nb, c)
			}
			ps.nbrLocal[k] = li
			ps.nbrTrans[k] = trans[j]
			k++
		}
	}

	// Send plans: local owned indices to read; the direct-write base into
	// the receiver is filled in by NewPartEngine.
	for _, dst := range sortedKeys(p.sendPlan[me]) {
		cells := p.sendPlan[me][dst]
		sp := sendPlan{dst: dst, idx: make([]int32, len(cells))}
		for i, c := range cells {
			li, ok := localOf[c]
			if !ok || li >= int32(ps.nOwned) {
				return nil, fmt.Errorf("umesh: part %d: planned send cell %d is not owned", me, c)
			}
			sp.idx[i] = li
		}
		ps.sends = append(ps.sends, sp)
	}

	// Receive routing table: source part → recv slot, so a sender resolves
	// its halo block in O(1) instead of a linear search over the slots.
	ps.slotBySrc = make([]int32, p.NumParts)
	for i := range ps.slotBySrc {
		ps.slotBySrc[i] = -1
	}
	for ri, r := range ps.recvs {
		ps.slotBySrc[r.src] = int32(ri)
	}

	// Interior/frontier row classification: a row touching any halo cell
	// must wait for the exchange; every other row overlaps with it.
	for i := 0; i < ps.nOwned; i++ {
		isFrontier := false
		for j := ps.rowStart[i]; j < ps.rowStart[i+1]; j++ {
			if ps.nbrLocal[j] >= int32(ps.nOwned) {
				isFrontier = true
				break
			}
		}
		if isFrontier {
			ps.frontier = append(ps.frontier, int32(i))
		} else {
			ps.interior = append(ps.interior, int32(i))
		}
	}
	return ps, nil
}

// WorkingSet reports a part's resident cell count — the O(owned+halo)
// guarantee tests assert.
func (e *PartEngine) WorkingSet(part int) (owned, halo int) {
	ps := e.parts[part]
	return ps.nOwned, ps.nHalo
}

// Close stops the worker pool. The engine must not be used after.
func (e *PartEngine) Close() { e.pool.Stop() }

// Run loads the global pressure field into the parts, executes opts.Apps
// applications of Algorithm 1 and returns the final application's residual
// in global cell order. The input slice is not mutated; Run may be called
// repeatedly (each call restarts from the given field).
func (e *PartEngine) Run(pres []float32) (*PartResult, error) {
	if len(pres) != e.u.NumCells {
		return nil, fmt.Errorf("umesh: pressure length %d != cells %d", len(pres), e.u.NumCells)
	}
	b0, d0 := e.pool.Counters()
	if err := e.pool.Run(func(shard int) error {
		ps := e.parts[shard]
		for i := 0; i < ps.nOwned; i++ {
			ps.pres[i] = pres[ps.globalOf[i]]
		}
		ps.comm = CommCounters{}
		return nil
	}); err != nil {
		return nil, err
	}

	start := time.Now()
	for app := 0; app < e.opts.Apps; app++ {
		if err := e.step(app); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	res := &PartResult{
		Engine:   "umesh-part",
		NumCells: e.u.NumCells,
		NumParts: e.part.NumParts,
		Apps:     e.opts.Apps,
		Workers:  e.pool.Workers(),
		Residual: make([]float64, e.u.NumCells),
		Elapsed:  elapsed,
	}
	if err := e.pool.Run(func(shard int) error {
		ps := e.parts[shard]
		for i := 0; i < ps.nOwned; i++ {
			res.Residual[ps.globalOf[i]] = ps.res[i]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Deterministic reduction: fold per-part counters in part order, the
	// same discipline core.summarize applies to per-PE counters; the pool's
	// synchronization counts are reported as this Run's delta.
	for _, ps := range e.parts {
		res.Comm.HaloWords += ps.comm.HaloWords
		res.Comm.Messages += ps.comm.Messages
	}
	b1, d1 := e.pool.Counters()
	res.Comm.Barriers = b1 - b0
	res.Comm.Dispatches = d1 - d0
	return res, nil
}

// step executes one application as one plan dispatch: the fused
// (perturb+)send+interior step, then — only when some part exchanges halo
// data — the frontier step after the barrier that orders the direct writes.
func (e *PartEngine) step(app int) error {
	e.app = app
	pl := e.planNext
	if app == 0 {
		pl = e.planFirst
	}
	_, err := pl.Execute()
	return err
}

// perturbOwned applies the shared perturbation schedule to the part's owned
// cells and refreshes their densities in the same pass; halo copies are
// refreshed by the following exchange, so the global field evolves exactly
// as the serial sweep's does.
func (e *PartEngine) perturbOwned(ps *partState) {
	app, amp, fl := e.app, e.opts.PerturbAmplitude, e.fl
	for i := 0; i < ps.nOwned; i++ {
		ps.pres[i] += mesh.PerturbDelta32(app, int(ps.globalOf[i]), amp)
		ps.rho[i] = fl.Density(float64(ps.pres[i]))
	}
}

// densities evaluates ρ for the local cells [lo, hi) from their resident
// pressures — the same Density(float64(p)) the serial sweep evaluates per
// half-face, so the cached values are bit-identical to it.
func (e *PartEngine) densities(ps *partState, lo, hi int) {
	fl := e.fl
	for i := lo; i < hi; i++ {
		ps.rho[i] = fl.Density(float64(ps.pres[i]))
	}
}

// residualRows evaluates the listed owned rows in the serial sweep's
// per-cell accumulation order, reading the cached densities of every cell
// the rows touch. Rows write disjoint residual entries, so splitting them
// between the send and frontier phases leaves every value bit-identical to
// the one-pass sweep.
func (e *PartEngine) residualRows(ps *partState, rows []int32) {
	fl := e.fl
	for _, i := range rows {
		pc := float64(ps.pres[i])
		rc := ps.rho[i]
		zc := ps.elev[i]
		sum := 0.0
		for j := ps.rowStart[i]; j < ps.rowStart[i+1]; j++ {
			nb := ps.nbrLocal[j]
			sum += fl.FaceFluxRho(ps.nbrTrans[j], pc, float64(ps.pres[nb]), rc, ps.rho[nb], zc, ps.elev[nb])
		}
		ps.res[i] = sum
	}
}

// pushHalo writes the part's planned owned pressure values straight into
// each neighbor's contiguous halo block — one coalesced region per
// (src, dst) pair. The regions are disjoint from every owned range and from
// each other, so the concurrent writes are race-free; the step barrier
// orders them before the receivers' frontier rows.
func (e *PartEngine) pushHalo(ps *partState) {
	for si := range ps.sends {
		sp := &ps.sends[si]
		dst := e.parts[sp.dst].pres
		base := sp.dstBase
		for j, li := range sp.idx {
			dst[base+j] = ps.pres[li]
		}
		ps.comm.HaloWords += uint64(len(sp.idx))
		ps.comm.Messages++
	}
}

// phaseSendInterior evaluates the owned densities, pushes the part's halo
// values into the neighbors' resident fields, then computes every interior
// row (no halo neighbors) — the halo movement overlapped with the bulk of
// the sweep. The steady-state path allocates nothing.
func (e *PartEngine) phaseSendInterior(shard int) error {
	ps := e.parts[shard]
	e.densities(ps, 0, ps.nOwned)
	e.pushHalo(ps)
	e.residualRows(ps, ps.interior)
	return nil
}

// phasePerturbSendInterior fuses the perturbation into the send phase: the
// perturbation touches only the part's own owned cells, which no other
// part reads or writes during this step, so it needs no barrier of its own.
func (e *PartEngine) phasePerturbSendInterior(shard int) error {
	ps := e.parts[shard]
	e.perturbOwned(ps)
	e.pushHalo(ps)
	e.residualRows(ps, ps.interior)
	return nil
}

// phaseRecvFrontier evaluates the halo densities from the received
// pressures, then computes the frontier rows, once the step barrier has
// ordered every neighbor's halo write into this part's resident field.
func (e *PartEngine) phaseRecvFrontier(shard int) error {
	ps := e.parts[shard]
	e.densities(ps, ps.nOwned, ps.nOwned+ps.nHalo)
	e.residualRows(ps, ps.frontier)
	return nil
}

// RunCellBasedApps executes the serial cell-based sweep through the shared
// multi-application schedule — the reference the partitioned engine must
// match bit-for-bit. The input slice is not mutated; the returned residual
// is the final application's.
func RunCellBasedApps(u *Mesh, fl physics.Fluid, p []float32, apps int, amp float32) ([]float64, error) {
	if apps < 1 {
		return nil, fmt.Errorf("umesh: applications must be positive, got %d", apps)
	}
	field := append([]float32(nil), p...)
	var res []float64
	var err error
	for app := 0; app < apps; app++ {
		if app > 0 {
			mesh.PerturbPressure32(field, app, amp)
		}
		res, err = ComputeResidualCellBased(u, fl, field)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
