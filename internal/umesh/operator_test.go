package umesh

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
)

// probeVector returns a deterministic pressure-scale probe.
func probeVector(n int, seed int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1e5 * math.Sin(float64(i+seed)*0.9)
	}
	return x
}

func newUSystemFixture(t *testing.T, u *Mesh) *USystem {
	t.Helper()
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPartOperatorBitIdenticalToHost(t *testing.T) {
	// The tentpole invariant: A·x through the partitioned runtime equals the
	// serial float64 host apply bit-for-bit, for every mesh builder, part
	// count 1–8 and worker count. CI runs this under -race.
	for name, u := range engineFixtures(t) {
		sys := newUSystemFixture(t, u)
		host := &UHostOperator{Sys: sys}
		x := probeVector(u.NumCells, 7)
		want := make([]float64, u.NumCells)
		if err := host.Apply(want, x); err != nil {
			t.Fatal(err)
		}
		for _, levels := range []int{0, 1, 2, 3} {
			part, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				po, err := NewPartOperator(e, sys)
				if err != nil {
					e.Close()
					t.Fatal(err)
				}
				got := make([]float64, u.NumCells)
				err = po.Apply(got, x)
				e.Close()
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s parts=%d workers=%d: A·x[%d] differs: %g vs %g",
							name, part.NumParts, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPartOperatorDiagonalAndDotBitIdentical(t *testing.T) {
	// The partitioned Jacobi diagonal must equal the serial diagonal exactly,
	// and the distributed dot must equal the canonical blocked reduction —
	// the partition-independent summation tree the serial reference also
	// uses — for every part count.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newUSystemFixture(t, u)
	wantDiag := sys.Diagonal()
	a := probeVector(u.NumCells, 3)
	b := probeVector(u.NumCells, 11)
	wantDot := newSerialReference(sys).Dot(a, b)
	plain := 0.0
	for i := range a {
		plain += a[i] * b[i]
	}
	if rel := math.Abs(wantDot-plain) / math.Abs(plain); rel > 1e-12 {
		t.Fatalf("canonical dot %g is not a rounding-level reordering of the plain dot %g (rel %g)",
			wantDot, plain, rel)
	}
	for _, levels := range []int{0, 2, 3} {
		part, err := RCB(u, levels)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		po, err := NewPartOperator(e, sys)
		if err != nil {
			e.Close()
			t.Fatal(err)
		}
		diag := po.Diagonal()
		po.Reserve(2)
		po.LoadVec2(0, a, 1, b)
		dot := po.DotVec(0, 1)
		e.Close()
		for i := range wantDiag {
			if diag[i] != wantDiag[i] {
				t.Fatalf("parts=%d: diagonal[%d] differs: %g vs %g", part.NumParts, i, diag[i], wantDiag[i])
			}
		}
		if dot != wantDot {
			t.Fatalf("parts=%d: distributed dot %g != canonical serial reduction %g", part.NumParts, dot, wantDot)
		}
	}
}

func TestPartOperatorApplyAllocFree(t *testing.T) {
	// The acceptance check: once warm, Apply and DotVec run entirely through
	// persistent buffers and pre-built phase closures — zero allocations.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	po, err := NewPartOperator(e, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	x := probeVector(u.NumCells, 1)
	dst := make([]float64, u.NumCells)
	if err := po.Apply(dst, x); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := po.Apply(dst, x); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Apply allocates %.1f objects, want 0", allocs)
	}
	po.Reserve(2)
	po.LoadVec2(0, x, 1, dst)
	allocs = testing.AllocsPerRun(50, func() {
		po.DotVec(0, 1)
	})
	if allocs != 0 {
		t.Errorf("resident DotVec allocates %.1f objects, want 0", allocs)
	}
}

// residentFixture builds a PartOperator on an RCB partition of the default
// radial mesh.
func residentFixture(tb testing.TB, levels, workers int) (*PartOperator, func()) {
	tb.Helper()
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return residentFixtureOn(tb, u, levels, workers)
}

// residentFixtureOn builds a PartOperator on an RCB partition of the given
// mesh.
func residentFixtureOn(tb testing.TB, u *Mesh, levels, workers int) (*PartOperator, func()) {
	tb.Helper()
	part, err := RCB(u, levels)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		e.Close()
		tb.Fatal(err)
	}
	po, err := NewPartOperator(e, sys)
	if err != nil {
		e.Close()
		tb.Fatal(err)
	}
	return po, e.Close
}

func TestResidentSolveMatchesSlicePathBitExact(t *testing.T) {
	// One recurrence, two layouts: CG on the part-resident operator must
	// reproduce CG on the serial reference — the same phase program run
	// over global slices, its dots through the same canonical Reducer tree —
	// bit-for-bit: histories, iterations, and the solution.
	po, closeOp := residentFixture(t, 2, 2)
	defer closeOp()
	diag := po.Diagonal()
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0

	xSlice := make([]float64, n)
	stSlice, err := solver.CG(newSerialReference(po.Sys), xSlice, b, solver.Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: diag})
	if err != nil {
		t.Fatal(err)
	}
	xRes := make([]float64, n)
	stRes, err := solver.CG(po, xRes, b, solver.Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: diag})
	if err != nil {
		t.Fatal(err)
	}
	if stSlice.Iterations != stRes.Iterations {
		t.Fatalf("slice path took %d iterations, resident path %d", stSlice.Iterations, stRes.Iterations)
	}
	for k := range stSlice.History {
		if stSlice.History[k] != stRes.History[k] {
			t.Fatalf("history[%d] differs: slice %g, resident %g", k, stSlice.History[k], stRes.History[k])
		}
	}
	for i := range xSlice {
		if xSlice[i] != xRes[i] {
			t.Fatalf("solution[%d] differs: slice %g, resident %g", i, xSlice[i], xRes[i])
		}
	}
}

func TestResidentSolveScattersAndGathersOnce(t *testing.T) {
	// The part-resident acceptance metric: one scatter and one gather per
	// solve, however many iterations the solve takes — for CG and BiCGStab.
	for _, bicg := range []bool{false, true} {
		po, closeOp := residentFixture(t, 1, 1)
		diag := po.Diagonal()
		n := po.Size()
		b := make([]float64, n)
		b[0], b[n-1] = 2.0, -2.0
		x := make([]float64, n)
		solve := solver.CG
		if bicg {
			solve = solver.BiCGStab
		}
		st, err := solve(po, x, b, solver.Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: diag})
		closeOp()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || st.Iterations < 2 {
			t.Fatalf("bicg=%v: degenerate solve: %+v", bicg, st)
		}
		if po.Scatters != 1 || po.Gathers != 1 {
			t.Errorf("bicg=%v: %d iterations used %d scatters and %d gathers, want exactly 1 each",
				bicg, st.Iterations, po.Scatters, po.Gathers)
		}
		if po.Applications < st.Iterations {
			t.Errorf("bicg=%v: %d applications for %d iterations", bicg, po.Applications, st.Iterations)
		}
		if po.Phase.Total() <= 0 {
			t.Errorf("bicg=%v: no per-phase time recorded: %+v", bicg, po.Phase)
		}
	}
}

func TestResidentFusedPhasesAllocFree(t *testing.T) {
	// Every fused part-resident phase must allocate nothing once the vector
	// pool is warm — the acceptance criterion for the steady-state solve.
	po, closeOp := residentFixture(t, 2, 2)
	defer closeOp()
	diag := po.Diagonal()
	if err := po.SetPrecondDiag(diag); err != nil {
		t.Fatal(err)
	}
	po.Reserve(6)
	n := po.Size()
	a := probeVector(n, 1)
	b := probeVector(n, 2)
	po.LoadVec2(solver.Vec(0), a, solver.Vec(1), b)
	out := make([]float64, n)
	steps := map[string]func(){
		"LoadVec2":      func() { po.LoadVec2(solver.Vec(0), a, solver.Vec(1), b) },
		"StoreVec":      func() { po.StoreVec(out, solver.Vec(0)) },
		"ApplyVec":      func() { _ = po.ApplyVec(solver.Vec(2), solver.Vec(0)) },
		"ApplyDotVec":   func() { _, _ = po.ApplyDotVec(solver.Vec(2), solver.Vec(0), solver.Vec(1)) },
		"DotVec":        func() { po.DotVec(solver.Vec(0), solver.Vec(1)) },
		"Dot2Vec":       func() { po.Dot2Vec(solver.Vec(0), solver.Vec(1), solver.Vec(2)) },
		"AxpyVec":       func() { po.AxpyVec(solver.Vec(2), 0.5, solver.Vec(0)) },
		"Axpy2Vec":      func() { po.Axpy2Vec(solver.Vec(2), 0.5, solver.Vec(0), 0.25, solver.Vec(1)) },
		"XpbyVec":       func() { po.XpbyVec(solver.Vec(2), 0.5, solver.Vec(0)) },
		"SubAxpyDotVec": func() { po.SubAxpyDotVec(solver.Vec(3), solver.Vec(0), 0.5, solver.Vec(1)) },
		"CGStepVec":     func() { po.CGStepVec(solver.Vec(2), 0.5, solver.Vec(0), solver.Vec(3), solver.Vec(1)) },
		"BicgPVec":      func() { po.BicgPVec(solver.Vec(3), solver.Vec(0), solver.Vec(1), 0.5, 0.25) },
		"PrecondVec":    func() { po.PrecondVec(solver.Vec(4), solver.Vec(0)) },
		"PrecondDotVec": func() { po.PrecondDotVec(solver.Vec(4), solver.Vec(0)) },
		"CopyVec":       func() { po.CopyVec(solver.Vec(5), solver.Vec(0)) },
		"SetPrecond":    func() { _ = po.SetPrecondDiag(diag) },
	}
	for name, fn := range steps {
		fn() // warm up
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// BenchmarkPartOperatorApply measures one resident operator application
// (fused send+interior, receive+frontier) across part and worker counts.
func BenchmarkPartOperatorApply(b *testing.B) {
	for _, levels := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2} {
			b.Run(benchName(1<<levels, workers), func(b *testing.B) {
				po, closeOp := residentFixtureOn(b, benchRadial(b), levels, workers)
				defer closeOp()
				po.Reserve(2)
				x := probeVector(po.Size(), 1)
				po.LoadVec2(solver.Vec(0), x, solver.Vec(1), x)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := po.ApplyVec(solver.Vec(1), solver.Vec(0)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartOperatorDot measures one fused resident inner product.
func BenchmarkPartOperatorDot(b *testing.B) {
	for _, levels := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2} {
			b.Run(benchName(1<<levels, workers), func(b *testing.B) {
				po, closeOp := residentFixtureOn(b, benchRadial(b), levels, workers)
				defer closeOp()
				po.Reserve(2)
				x := probeVector(po.Size(), 1)
				po.LoadVec2(solver.Vec(0), x, solver.Vec(1), x)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					po.DotVec(solver.Vec(0), solver.Vec(1))
				}
			})
		}
	}
}

// BenchmarkPartOperatorHostApply is the serial UHostOperator yardstick the
// resident application is compared against.
func BenchmarkPartOperatorHostApply(b *testing.B) {
	u := benchRadial(b)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		b.Fatal(err)
	}
	host := &UHostOperator{Sys: sys}
	x := probeVector(u.NumCells, 1)
	dst := make([]float64, u.NumCells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.Apply(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(parts, workers int) string {
	return fmt.Sprintf("parts=%d/workers=%d", parts, workers)
}

func TestPartOperatorCommCounters(t *testing.T) {
	// Each Apply ships exactly the partition's static halo plan, counted as
	// two 32-bit words per float64 value, one message per neighbor pair.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	po, err := NewPartOperator(e, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	var wantWords, wantMsgs uint64
	for me := 0; me < part.NumParts; me++ {
		wantWords += 2 * uint64(part.HaloCells(me))
		wantMsgs += uint64(len(part.recvPlan[me]))
	}
	x := probeVector(u.NumCells, 2)
	dst := make([]float64, u.NumCells)
	const apps = 4
	for k := 0; k < apps; k++ {
		if err := po.Apply(dst, x); err != nil {
			t.Fatal(err)
		}
	}
	if po.Applications != apps {
		t.Errorf("applications = %d, want %d", po.Applications, apps)
	}
	if po.Comm.HaloWords != apps*wantWords || po.Comm.Messages != apps*wantMsgs {
		t.Errorf("comm {words %d, msgs %d}, want {%d, %d}",
			po.Comm.HaloWords, po.Comm.Messages, apps*wantWords, apps*wantMsgs)
	}
}

func TestUHostOperatorSymmetricPositiveDefinite(t *testing.T) {
	// The frozen-mobility system must be SPD — what makes CG applicable.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newUSystemFixture(t, u)
	op := &UHostOperator{Sys: sys}
	n := op.Size()
	ax := make([]float64, n)
	ay := make([]float64, n)
	for seed := 0; seed < 10; seed++ {
		x := probeVector(n, seed)
		y := probeVector(n, seed+100)
		if err := op.Apply(ax, x); err != nil {
			t.Fatal(err)
		}
		if err := op.Apply(ay, y); err != nil {
			t.Fatal(err)
		}
		var xay, yax, xax float64
		for i := 0; i < n; i++ {
			xay += x[i] * ay[i]
			yax += y[i] * ax[i]
			xax += x[i] * ax[i]
		}
		if math.Abs(xay-yax) > 1e-9*(math.Abs(xay)+1e-30) {
			t.Fatalf("seed %d: not symmetric: xᵀAy=%g yᵀAx=%g", seed, xay, yax)
		}
		if xax <= 0 {
			t.Fatalf("seed %d: not positive definite: xᵀAx=%g", seed, xax)
		}
	}
}

func TestPartOperatorIterationParityWithStructuredHost(t *testing.T) {
	// On a structured-converted mesh with the structured system's own
	// coefficients: the part-resident solve at parts=1 takes exactly as many
	// iterations as the canonical serial reference (the designed invariant),
	// and cross-validates against CG through solver.HostOperator — whose
	// inner products use the plain index-order sum, so its trajectory may
	// round differently: iterations agree within a small band and the
	// solutions to solver tolerance.
	sm, err := mesh.BuildDefault(mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	ssys, err := solver.NewPressureSystem(sm, fl, 3600, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	u, err := FromStructured(sm, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	usys := &USystem{U: u, Mobility: ssys.Mobility, Accum: ssys.Accum}
	part, err := RCB(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, fl, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	po, err := NewPartOperator(e, usys)
	if err != nil {
		t.Fatal(err)
	}

	b, err := solver.WellSource(sm, 1, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(op solver.Operator, diag []float64) (int, []float64) {
		x := make([]float64, op.Size())
		st, err := solver.CG(op, x, b, solver.Options{Tol: 1e-8, MaxIter: 600, PrecondDiag: diag})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatal("solve did not converge")
		}
		return st.Iterations, x
	}
	refIts, refX := solve(newSerialReference(usys), usys.Diagonal())
	partIts, partX := solve(po, po.Diagonal())
	if refIts != partIts {
		t.Errorf("iteration parity broken: canonical serial reference %d its, part-resident operator %d its",
			refIts, partIts)
	}
	for i := range refX {
		if refX[i] != partX[i] {
			t.Fatalf("part-resident solution diverges from the canonical reference at cell %d: %g vs %g",
				i, partX[i], refX[i])
		}
	}
	hostIts, hostX := solve(&solver.HostOperator{Sys: ssys}, ssys.Diagonal())
	if d := hostIts - partIts; d < -5 || d > 5 {
		t.Errorf("structured host took %d its, part-resident %d — more than reordering noise", hostIts, partIts)
	}
	scale := 0.0
	for i := range hostX {
		if a := math.Abs(hostX[i]); a > scale {
			scale = a
		}
	}
	for i := range hostX {
		if math.Abs(hostX[i]-partX[i]) > 1e-6*scale {
			t.Fatalf("structured and part-resident solutions diverge at cell %d: %g vs %g",
				i, hostX[i], partX[i])
		}
	}
}

func TestNewUSystemValidation(t *testing.T) {
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	if _, err := NewUSystem(u, fl, 0, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := NewUSystem(u, fl, 3600, 1.5); err == nil {
		t.Error("porosity > 1 accepted")
	}
	incomp := fl
	incomp.Compressibility = 0
	if _, err := NewUSystem(u, incomp, 3600, 0); err == nil {
		t.Error("zero accumulation accepted (matrix would be singular)")
	}
	bad := fl
	bad.Viscosity = 0
	if _, err := NewUSystem(u, bad, 3600, 0); err == nil {
		t.Error("invalid fluid accepted")
	}
}

func TestNewPartOperatorValidation(t *testing.T) {
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	other, err := NewRadialMesh(RadialOptions{Rings: 3, BaseSectors: 4, R0: 1, DR: 2, Dz: 2, PermMD: 50})
	if err != nil {
		t.Fatal(err)
	}
	osys := newUSystemFixture(t, other)
	if _, err := NewPartOperator(e, osys); err == nil {
		t.Error("system of a different mesh accepted")
	}
	po, err := NewPartOperator(e, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 3)
	if err := po.Apply(short, short); err == nil {
		t.Error("wrong-length vectors accepted")
	}
}
