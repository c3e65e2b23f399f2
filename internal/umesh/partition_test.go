package umesh

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/mesh"
)

// partitionFixtures returns meshes with genuinely different geometry for the
// RCB property tests.
func partitionFixtures(t *testing.T) map[string]*Mesh {
	t.Helper()
	_, conv := structuredFixture(t, mesh.Dims{Nx: 9, Ny: 7, Nz: 3})
	_, jit := structuredFixture(t, mesh.Dims{Nx: 9, Ny: 7, Nz: 3})
	if err := jit.Jitter(0.3, 5); err != nil {
		t.Fatal(err)
	}
	rad, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Mesh{"structured": conv, "jittered": jit, "radial": rad}
}

func TestRCBBalancedPerBisectionLevel(t *testing.T) {
	// Property: every median split leaves the two subtrees within one cell
	// of each other. Verified bottom-up: leaf sizes are the part sizes;
	// sibling subtree sums must differ by ≤1 at every level.
	for name, u := range partitionFixtures(t) {
		for _, levels := range []int{1, 2, 3} {
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			sizes := make([]int, p.NumParts)
			for i, owned := range p.Owned {
				sizes[i] = len(owned)
			}
			for lvl := levels; lvl > 0; lvl-- {
				next := make([]int, len(sizes)/2)
				for i := 0; i < len(sizes); i += 2 {
					l, r := sizes[i], sizes[i+1]
					if d := l - r; d < -1 || d > 1 {
						t.Errorf("%s levels=%d: sibling subtrees at level %d own %d vs %d cells",
							name, levels, lvl, l, r)
					}
					next[i/2] = l + r
				}
				sizes = next
			}
			if sizes[0] != u.NumCells {
				t.Fatalf("%s levels=%d: subtree sums reconstruct %d cells, mesh has %d",
					name, levels, sizes[0], u.NumCells)
			}
		}
	}
}

func TestRCBPlansSymmetric(t *testing.T) {
	// Property: sendPlan[src][dst] and recvPlan[dst][src] are the same cell
	// list — one message's wire format, agreed by both ends.
	for name, u := range partitionFixtures(t) {
		p, err := RCB(u, 3)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < p.NumParts; src++ {
			for dst, sent := range p.sendPlan[src] {
				recv, ok := p.recvPlan[dst][src]
				if !ok {
					t.Fatalf("%s: part %d sends to %d but %d expects nothing", name, src, dst, dst)
				}
				if len(sent) != len(recv) {
					t.Fatalf("%s: %d→%d plan lengths differ: %d vs %d", name, src, dst, len(sent), len(recv))
				}
				for i := range sent {
					if sent[i] != recv[i] {
						t.Fatalf("%s: %d→%d plan diverges at %d: %d vs %d", name, src, dst, i, sent[i], recv[i])
					}
				}
			}
			// No receive without a matching send.
			for src2, recv := range p.recvPlan[src] {
				if _, ok := p.sendPlan[src2][src]; !ok {
					t.Fatalf("%s: part %d expects %d cells from %d, which sends nothing",
						name, src, len(recv), src2)
				}
			}
		}
	}
}

func TestRCBPlannedHaloCellsFaceAdjacent(t *testing.T) {
	// Property: every planned halo cell is owned by the sender AND shares a
	// face with at least one cell of the receiving part — the plan ships
	// exactly the §4 ghost layer, nothing speculative.
	for name, u := range partitionFixtures(t) {
		p, err := RCB(u, 3)
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < p.NumParts; dst++ {
			for src, cells := range p.recvPlan[dst] {
				for _, c := range cells {
					if p.Part[c] != src {
						t.Fatalf("%s: halo cell %d planned from part %d but owned by %d",
							name, c, src, p.Part[c])
					}
					nbrs, _ := u.halfFaces(c)
					adjacent := false
					for _, nb := range nbrs {
						if p.Part[nb] == dst {
							adjacent = true
							break
						}
					}
					if !adjacent {
						t.Fatalf("%s: planned halo cell %d (part %d→%d) is not face-adjacent to the receiving part",
							name, c, src, dst)
					}
				}
			}
		}
		// Completeness: every cross-part face's two cells appear in each
		// other's plans (no missing halo).
		for _, f := range u.Faces {
			pa, pb := p.Part[f.A], p.Part[f.B]
			if pa == pb {
				continue
			}
			if !containsCell(p.recvPlan[pa][pb], f.B) {
				t.Fatalf("%s: face (%d,%d) crosses %d/%d but %d is not in part %d's plan",
					name, f.A, f.B, pa, pb, f.B, pa)
			}
			if !containsCell(p.recvPlan[pb][pa], f.A) {
				t.Fatalf("%s: face (%d,%d) crosses %d/%d but %d is not in part %d's plan",
					name, f.A, f.B, pa, pb, f.A, pb)
			}
		}
	}
}

func TestCanonicalOrderHierarchy(t *testing.T) {
	// The property the deterministic reductions stand on: the canonical
	// order is a permutation of the cells, every RCB part owns one
	// contiguous canonical run with parts ascending (so the concatenation of
	// Owned lists is the canonical order itself), and part boundaries land
	// on canonical block boundaries.
	for name, u := range partitionFixtures(t) {
		canon := CanonicalOrder(u)
		if len(canon) != u.NumCells {
			t.Fatalf("%s: canonical order covers %d of %d cells", name, len(canon), u.NumCells)
		}
		seen := make([]bool, u.NumCells)
		for _, c := range canon {
			if seen[c] {
				t.Fatalf("%s: cell %d appears twice in the canonical order", name, c)
			}
			seen[c] = true
		}
		blockAt := map[int]bool{}
		for _, b := range canonicalBlocks(u.NumCells, reductionDepth) {
			blockAt[int(b)] = true
		}
		for _, levels := range []int{0, 1, 2, 3} {
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			for me, owned := range p.Owned {
				if !blockAt[pos] {
					t.Errorf("%s levels=%d: part %d starts at canonical position %d, not a block boundary",
						name, levels, me, pos)
				}
				for i, c := range owned {
					if int32(c) != canon[pos+i] {
						t.Fatalf("%s levels=%d: part %d owned[%d] = %d, canonical order has %d",
							name, levels, me, i, c, canon[pos+i])
					}
				}
				pos += len(owned)
			}
			if pos != u.NumCells {
				t.Fatalf("%s levels=%d: Owned lists cover %d of %d cells", name, levels, pos, u.NumCells)
			}
		}
	}
}

// legacyBisect is the median split as RCB and CanonicalOrder each ran it
// before they shared one recursion: sort.Slice on a comparator that reads
// the centroid through the id on every comparison.
func legacyBisect(u *Mesh, ids []int) int {
	var lo, hi [3]float64
	for k := 0; k < 3; k++ {
		lo[k], hi[k] = u.Centroid[ids[0]][k], u.Centroid[ids[0]][k]
	}
	for _, c := range ids {
		for k := 0; k < 3; k++ {
			if v := u.Centroid[c][k]; v < lo[k] {
				lo[k] = v
			} else if v > hi[k] {
				hi[k] = v
			}
		}
	}
	axis := 0
	for k := 1; k < 3; k++ {
		if hi[k]-lo[k] > hi[axis]-lo[axis] {
			axis = k
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := u.Centroid[ids[i]][axis], u.Centroid[ids[j]][axis]
		if a != b {
			return a < b
		}
		return ids[i] < ids[j]
	})
	return len(ids) / 2
}

// legacyCanonicalOrder is CanonicalOrder's former full-depth recursion.
func legacyCanonicalOrder(u *Mesh) []int {
	canon := make([]int, u.NumCells)
	for i := range canon {
		canon[i] = i
	}
	var rec func(ids []int)
	rec = func(ids []int) {
		if len(ids) > 1 {
			mid := legacyBisect(u, ids)
			rec(ids[:mid])
			rec(ids[mid:])
		}
	}
	rec(canon)
	return canon
}

// legacyRCB returns the part map of RCB's former own split recursion and
// its Owned lists in the given canonical order.
func legacyRCB(u *Mesh, levels int, canon []int) (part []int, owned [][]int) {
	part = make([]int, u.NumCells)
	cells := make([]int, u.NumCells)
	for i := range cells {
		cells[i] = i
	}
	var split func(ids []int, base, lvl int)
	split = func(ids []int, base, lvl int) {
		if lvl == 0 {
			for _, c := range ids {
				part[c] = base
			}
			return
		}
		mid := legacyBisect(u, ids)
		split(ids[:mid], base, lvl-1)
		split(ids[mid:], base+(1<<(lvl-1)), lvl-1)
	}
	split(cells, 0, levels)
	owned = make([][]int, 1<<levels)
	for _, c := range canon {
		owned[part[c]] = append(owned[part[c]], c)
	}
	return part, owned
}

func TestRCBMatchesLegacyComparator(t *testing.T) {
	// RCB now reads its parts off CanonicalOrder's cuts, and bisect sorts
	// precomputed (key, id) records: the partitions and the order must be
	// exactly those of the former separate recursions and comparator.
	fixtures := engineFixtures(t)
	rad, err := NewRadialMesh(RadialOptions{Rings: 64, BaseSectors: 64, RefineEvery: 16, R0: 1, DR: 4, Dz: 4, PermMD: 200})
	if err != nil {
		t.Fatal(err)
	}
	fixtures["radial-64x64"] = rad
	for name, u := range fixtures {
		wantCanon := legacyCanonicalOrder(u)
		for i, c := range CanonicalOrder(u) {
			if int(c) != wantCanon[i] {
				t.Fatalf("%s: CanonicalOrder[%d] = %d, legacy order has %d", name, i, c, wantCanon[i])
			}
		}
		for levels := 0; levels <= 4; levels++ {
			wantPart, wantOwned := legacyRCB(u, levels, wantCanon)
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Part, wantPart) {
				t.Fatalf("%s levels=%d: part map differs from the legacy recursion", name, levels)
			}
			if len(p.Owned) != len(wantOwned) {
				t.Fatalf("%s levels=%d: %d Owned lists, legacy has %d", name, levels, len(p.Owned), len(wantOwned))
			}
			for k := range wantOwned {
				if !slices.Equal(p.Owned[k], wantOwned[k]) {
					t.Fatalf("%s levels=%d: Owned[%d] differs from the legacy recursion", name, levels, k)
				}
			}
		}
	}
}

func TestCanonicalOrderCachedAndInvalidated(t *testing.T) {
	// The order is computed once per mesh; geometry mutation rebuilds it.
	_, u := structuredFixture(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 2})
	first := CanonicalOrder(u)
	if second := CanonicalOrder(u); &second[0] != &first[0] {
		t.Error("second CanonicalOrder call recomputed instead of returning the cache")
	}
	if err := u.Jitter(0.3, 9); err != nil {
		t.Fatal(err)
	}
	after := CanonicalOrder(u)
	if &after[0] == &first[0] {
		t.Error("Jitter left a stale canonical order cached")
	}
}

func containsCell(cells []int, c int) bool {
	for _, x := range cells {
		if x == c {
			return true
		}
	}
	return false
}
