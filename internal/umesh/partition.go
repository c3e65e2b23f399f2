package umesh

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/physics"
)

// Partition assigns cells to parts and precomputes the halo-exchange plan:
// for every (owner, neighbor-part) pair, the exact cell lists to ship. This
// is the top-level distribution concern that "would be usually implemented
// with MPI" (§4), realized with goroutines and channels.
type Partition struct {
	NumParts int
	// Part maps cell → owning part.
	Part []int
	// Owned lists each part's cells. RCB partitions list them in canonical
	// order (see CanonicalOrder), each part owning one contiguous canonical
	// run with parts ascending.
	Owned [][]int
	// canonical records that Owned has the canonical-run structure above —
	// what entitles partitioned reductions to the part-count-independent
	// canonical block fold.
	canonical bool
	// sendPlan[p] lists, per destination part, the owned cells whose values
	// the destination needs (because a face crosses the boundary).
	sendPlan []map[int][]int
	// recvPlan[p] lists, per source part, the remote cells p will receive
	// (in the sender's order, so one message slots straight in).
	recvPlan []map[int][]int
}

// cellRec is one record of the canonical-order recursion: a cell's
// centroid and id, carried through the median splits so each split reads
// its subset's coordinates sequentially rather than through the ids.
type cellRec struct {
	c  [3]float64
	id int
}

// before is the split's total order along axis: the centroid coordinate
// first, cell id breaking ties. Ids are distinct, so no two records compare
// equal.
func (a *cellRec) before(b *cellRec, axis int) bool {
	return a.c[axis] < b.c[axis] || (a.c[axis] == b.c[axis] && a.id < b.id)
}

// bisect is the median split the canonical-order recursion is built from:
// order the subset along the widest axis of its bounding box (cell id
// breaks ties, so the split is deterministic) and cut at the middle. Only
// the cut matters — the recursion re-splits each half, so the order within
// a half never survives — so bisect selects rather than sorts: afterwards
// recs[:len/2] holds the len/2 smallest records, in no particular order.
func bisect(recs []cellRec) int {
	lo, hi := recs[0].c, recs[0].c
	for i := range recs {
		c := &recs[i].c
		lo[0], hi[0] = min(lo[0], c[0]), max(hi[0], c[0])
		lo[1], hi[1] = min(lo[1], c[1]), max(hi[1], c[1])
		lo[2], hi[2] = min(lo[2], c[2]), max(hi[2], c[2])
	}
	axis := 0
	for k := 1; k < 3; k++ {
		if hi[k]-lo[k] > hi[axis]-lo[axis] {
			axis = k
		}
	}
	mid := len(recs) / 2
	selectRecs(recs, mid, axis, 2*bits.Len(uint(len(recs))))
	return mid
}

// selectRecs permutes recs in place so that recs[:k] holds its k smallest
// records along axis and recs[k] the next one: introselect, a
// median-of-three quickselect that sorts the remaining subrange once it has
// spent budget partition rounds. bisect grants 2·log2(len) rounds, so the
// expected cost is linear and the worst case stays O(n log n).
func selectRecs(recs []cellRec, k, axis, budget int) {
	lo, hi := 0, len(recs)
	for ; hi-lo > 12; budget-- {
		if budget == 0 {
			slices.SortFunc(recs[lo:hi], func(a, b cellRec) int {
				switch {
				case a.before(&b, axis):
					return -1
				case b.before(&a, axis):
					return 1
				}
				return 0
			})
			return
		}
		p := lo + partitionRecs(recs[lo:hi], axis)
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ { // insertion sort the short tail
		for j := i; j > lo && recs[j].before(&recs[j-1], axis); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// partitionRecs splits r (len ≥ 3) around the median of its first, middle
// and last records and returns the pivot's final index: every record before
// it is smaller, every record after it larger. Sorting the three samples
// leaves a sentinel at each end, so neither scan needs an end test.
func partitionRecs(r []cellRec, axis int) int {
	n, m := len(r), len(r)/2
	if r[m].before(&r[0], axis) {
		r[0], r[m] = r[m], r[0]
	}
	if r[n-1].before(&r[m], axis) {
		r[m], r[n-1] = r[n-1], r[m]
		if r[m].before(&r[0], axis) {
			r[0], r[m] = r[m], r[0]
		}
	}
	pivot := r[m]
	r[m], r[n-2] = r[n-2], r[m]
	i, j := 0, n-2
	for {
		for i++; r[i].before(&pivot, axis); i++ {
		}
		for j--; pivot.before(&r[j], axis); j-- {
		}
		if i >= j {
			break
		}
		r[i], r[j] = r[j], r[i]
	}
	r[i], r[n-2] = r[n-2], r[i]
	return i
}

// CanonicalOrder returns the mesh's cells in canonical RCB order: the
// recursive coordinate bisection carried all the way down to single cells.
// RCB(u, levels) is the first levels cuts of this same recursion, so each
// of its parts owns one contiguous run of this order, for every level,
// with parts ascending.
//
// That makes the order the repo's deterministic reduction schedule: a dot
// product accumulated per part in canonical (compact-index) order and folded
// in part order is the same left-to-right sum for every part count, and for
// the serial reference too. It is partition-count-independent by
// construction, which is what keeps partitioned Krylov solves bit-identical
// across parts {1, 2, 4, 8, ... up to 2^reductionDepth} and to the serial
// solve.
// The order is computed once per mesh and cached (builders and mutators
// invalidate the cache); callers must treat the returned slice as
// read-only.
func CanonicalOrder(u *Mesh) []int32 {
	u.canonMu.Lock()
	defer u.canonMu.Unlock()
	if u.canon != nil {
		return u.canon
	}
	recs := make([]cellRec, u.NumCells)
	for i := range recs {
		recs[i] = cellRec{c: u.Centroid[i], id: i}
	}
	var rec func(recs []cellRec)
	rec = func(recs []cellRec) {
		if len(recs) <= 1 {
			return
		}
		mid := bisect(recs)
		rec(recs[:mid])
		rec(recs[mid:])
	}
	rec(recs)
	order := make([]int32, len(recs))
	for i := range recs {
		order[i] = int32(recs[i].id)
	}
	u.canon = order
	return order
}

// reductionDepth fixes the depth of the canonical reduction tree: inner
// products are accumulated flat within each depth-8 canonical block (up to
// 256 blocks) and the block partials are folded flat in block order. Block
// boundaries are the canonical recursion's own cuts, so every RCB part with
// up to reductionDepth bisection levels owns whole blocks — which is what
// makes the folded sum the same for every part count, and for the serial
// reference.
const reductionDepth = 8

// canonicalBlocks returns the start offsets (ascending, first always 0) of
// the canonical blocks at the given depth for an n-cell mesh: the
// canonical-order positions cut by the first depth levels of the len/2
// bisection recursion. The block structure depends only on n, never on a
// partition. At depth reductionDepth the blocks are the reduction tree's
// leaves; at depth levels, with 2^levels ≤ n, they are RCB's parts.
func canonicalBlocks(n, depth int) []int32 {
	var blocks []int32
	var rec func(off, ln, d int)
	rec = func(off, ln, d int) {
		if d == 0 || ln <= 1 {
			blocks = append(blocks, int32(off))
			return
		}
		mid := ln / 2
		rec(off, mid, d-1)
		rec(off+mid, ln-mid, d-1)
	}
	rec(0, n, depth)
	return blocks
}

// RCB partitions the mesh into 2^levels parts with recursive coordinate
// bisection: split the widest centroid axis at its median, recurse. The
// recursion is CanonicalOrder's, stopped after levels cuts, so the parts
// are read off the canonical order at its depth-levels blocks: part k owns
// the k-th block, and its Owned list is that canonical run — the
// concatenation of Owned lists over ascending parts is the canonical order
// itself, the property every deterministic partitioned reduction relies on.
func RCB(u *Mesh, levels int) (*Partition, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if levels < 0 || levels > 16 {
		return nil, fmt.Errorf("umesh: RCB levels %d out of range [0,16]", levels)
	}
	numParts := 1 << levels
	if numParts > u.NumCells {
		return nil, fmt.Errorf("umesh: %d parts exceed %d cells", numParts, u.NumCells)
	}
	order := CanonicalOrder(u)
	// With 2^levels ≤ NumCells every subtree above depth levels holds at
	// least two cells, so the recursion yields exactly numParts blocks.
	blocks := append(canonicalBlocks(u.NumCells, levels), int32(u.NumCells))
	part := make([]int, u.NumCells)
	for k := 0; k < numParts; k++ {
		for _, c := range order[blocks[k]:blocks[k+1]] {
			part[c] = k
		}
	}
	p, err := buildPartition(u, part, numParts)
	if err != nil {
		return nil, err
	}
	// Rebuild the Owned lists in canonical order: each part's run of the
	// canonical order is contiguous, so appending in canonical traversal
	// yields canonically sorted lists.
	for i := range p.Owned {
		p.Owned[i] = p.Owned[i][:0]
	}
	for _, c := range order {
		p.Owned[part[c]] = append(p.Owned[part[c]], int(c))
	}
	p.canonical = true
	return p, nil
}

// buildPartition derives ownership lists and the halo plan from a part map.
func buildPartition(u *Mesh, part []int, numParts int) (*Partition, error) {
	p := &Partition{NumParts: numParts, Part: part}
	p.Owned = make([][]int, numParts)
	for c, pp := range part {
		if pp < 0 || pp >= numParts {
			return nil, fmt.Errorf("umesh: cell %d assigned to invalid part %d", c, pp)
		}
		p.Owned[pp] = append(p.Owned[pp], c)
	}
	// Halo plan: a face (A,B) crossing parts means each side needs the
	// other's cell value. Collect unique cells per (src,dst) pair in
	// deterministic (cell-id) order.
	needed := make([]map[int]map[int]bool, numParts) // dst → src → set of src cells
	for i := range needed {
		needed[i] = make(map[int]map[int]bool)
	}
	addNeed := func(dst, src, cell int) {
		if needed[dst][src] == nil {
			needed[dst][src] = make(map[int]bool)
		}
		needed[dst][src][cell] = true
	}
	for _, f := range u.Faces {
		pa, pb := part[f.A], part[f.B]
		if pa == pb {
			continue
		}
		addNeed(pa, pb, f.B)
		addNeed(pb, pa, f.A)
	}
	p.sendPlan = make([]map[int][]int, numParts)
	p.recvPlan = make([]map[int][]int, numParts)
	for i := range p.sendPlan {
		p.sendPlan[i] = make(map[int][]int)
		p.recvPlan[i] = make(map[int][]int)
	}
	for dst := 0; dst < numParts; dst++ {
		for src, set := range needed[dst] {
			cells := make([]int, 0, len(set))
			for c := range set {
				cells = append(cells, c)
			}
			sort.Ints(cells)
			p.recvPlan[dst][src] = cells
			p.sendPlan[src][dst] = cells
		}
	}
	return p, nil
}

// HaloCells returns how many remote cell values part p receives per step —
// the communication volume the §9 "arbitrary topology" mapping must move.
func (p *Partition) HaloCells(part int) int {
	n := 0
	for _, cells := range p.recvPlan[part] {
		n += len(cells)
	}
	return n
}

// ComputeResidualPartitioned evaluates the cell-based Algorithm 1
// distributed across parts: a one-application convenience over the
// persistent PartEngine (which earlier versions implemented as a one-shot
// goroutine-per-part prototype). The result matches the serial sweeps
// bit-for-bit in float64 accumulation order per cell (cell-based order is
// preserved). Callers running more than one application should hold a
// PartEngine instead of paying engine construction per call.
func ComputeResidualPartitioned(u *Mesh, p *Partition, fl physics.Fluid, pres []float32) ([]float64, error) {
	if err := check(u, fl, pres); err != nil {
		return nil, err
	}
	e, err := NewPartEngine(u, p, fl, EngineOptions{Apps: 1})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	res, err := e.Run(pres)
	if err != nil {
		return nil, err
	}
	return res.Residual, nil
}
