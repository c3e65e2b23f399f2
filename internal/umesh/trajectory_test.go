package umesh_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/umesh"
	"repro/massivefv"
)

// bitsHash is the SHA-256 of a float64 slice's IEEE-754 bits, little-endian
// — one flipped bit anywhere changes it.
func bitsHash(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// pinned is one solve trajectory reduced to hashes: the final field, the
// total Krylov iteration count, and each step's residual history.
type pinned struct {
	pressure   string
	iterations int
	history    []string
}

func checkPinned(t *testing.T, name string, got, want pinned) {
	t.Helper()
	if got.pressure != want.pressure {
		t.Errorf("%s: pressure hash %s, pinned %s", name, got.pressure, want.pressure)
	}
	if got.iterations != want.iterations {
		t.Errorf("%s: %d iterations, pinned %d", name, got.iterations, want.iterations)
	}
	if len(got.history) != len(want.history) {
		t.Errorf("%s: %d step histories, pinned %d", name, len(got.history), len(want.history))
		return
	}
	for s := range want.history {
		if got.history[s] != want.history[s] {
			t.Errorf("%s: step %d history hash %s, pinned %s", name, s, got.history[s], want.history[s])
		}
	}
}

// TestSerialTrajectoriesPinned pins the serial solve trajectories themselves,
// bit for bit. The partitioned goldens only compare partitioned against
// serial, so a change that moved both alike would pass them; this test
// fails on any change to the serial reference's arithmetic: every
// preconditioner rung with CG and Jacobi with BiCGStab on the unstructured
// serial reference, the structured dataflow-operator CG of the facade, and
// one host-operator step of the structured simulator.
func TestSerialTrajectoriesPinned(t *testing.T) {
	u, err := umesh.NewRadialMesh(umesh.RadialOptions{
		Rings: 24, BaseSectors: 12, RefineEvery: 6, R0: 1, DR: 3, Dz: 4, PermMD: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	wells := []umesh.Well{{Cell: u.WellIndex(), Rate: 2.0}, {Cell: u.NumCells - 1, Rate: -2.0}}

	for _, tc := range []struct {
		name string
		kind solver.PrecondKind
		bicg bool
		want pinned
	}{
		{"cg/jacobi", solver.PrecondJacobi, false, pinned{"e32b8f5a899ad7762a04c658f9f2a09df2860eb7b6315403e4eed718cbe33dca", 296, []string{"b07617a086e883d7fe878c14ce810c71748cc7cc9e654e8aa9514193ea4c742c", "b07617a086e883d7fe878c14ce810c71748cc7cc9e654e8aa9514193ea4c742c"}}},
		{"cg/ssor", solver.PrecondSSOR, false, pinned{"925e8b85b4e282db35e3114d8c311b0f4716f12415b43cedacea804444239303", 278, []string{"c19c9bc36f27c2aee737b3666a336fa25b5b1e9847bfef0a2b2e8d009b677e3c", "c19c9bc36f27c2aee737b3666a336fa25b5b1e9847bfef0a2b2e8d009b677e3c"}}},
		{"cg/chebyshev", solver.PrecondChebyshev, false, pinned{"88857c414c6fa329e560005adc6d6efed3fbd5233fc78adecca6bea7e96abc97", 82, []string{"56e746703dd8cdbf01afbd02c99859dda51514f66be26927752e2cb43bcf5538", "56e746703dd8cdbf01afbd02c99859dda51514f66be26927752e2cb43bcf5538"}}},
		{"cg/amg", solver.PrecondAMG, false, pinned{"fe884093e15aa9b6de0cdafb61ba760e830c9da79f130ba846147213874429eb", 34, []string{"aa46e0b78985d76f457b161df56824532081d75a27d773eef0b18a9b104b4353", "aa46e0b78985d76f457b161df56824532081d75a27d773eef0b18a9b104b4353"}}},
		{"bicgstab/jacobi", solver.PrecondJacobi, true, pinned{"e582b48b26eafa2f3ad33c3a3dca6290a87aef2c2e87de85456eddd7e84fedc3", 244, []string{"672366d90b73b3e730cad78e928bd867c749650c61cb0bca5f5a87d1b9f568b2", "672366d90b73b3e730cad78e928bd867c749650c61cb0bca5f5a87d1b9f568b2"}}},
	} {
		opts := umesh.TransientOptions{Dt: 3600, Steps: 2, Wells: wells, UseBiCGStab: tc.bicg}
		opts.Solver.PrecondKind = tc.kind
		ts, err := umesh.NewTransientSolver(u, nil, fl, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := ts.Solve(opts)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := pinned{pressure: bitsHash(res.Pressure)}
		for _, st := range res.Steps {
			got.iterations += st.Iterations
			got.history = append(got.history, bitsHash(st.History))
		}
		checkPinned(t, tc.name, got, tc.want)
	}

	t.Run("massivefv.SolveCG", func(t *testing.T) {
		m, err := massivefv.BuildMesh(massivefv.Dims{Nx: 8, Ny: 6, Nz: 3})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := massivefv.NewPressureSystem(m, fl, 3600)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, m.Dims.Cells())
		b[m.Index(2, 2, 1)] = 1
		b[m.Index(5, 4, 1)] = -1
		x, st, err := massivefv.SolveCG(sys, fl, b, massivefv.SolverOptions{Tol: 1e-6, MaxIter: 300})
		if err != nil {
			t.Fatal(err)
		}
		got := pinned{pressure: bitsHash(x), iterations: st.Iterations, history: []string{bitsHash(st.History)}}
		checkPinned(t, "SolveCG", got, pinned{"58bc20f998a1ebedad5c874f31a192e7652ef80dd9dbb34e9f2eb0ec3ccef8a8", 65, []string{"d938277c10312112dc189aeeeabc1a65eab8a9a876d70106bdd9d5202edfdfdf"}})
	})

	t.Run("sim host step", func(t *testing.T) {
		m, err := mesh.BuildDefault(mesh.Dims{Nx: 10, Ny: 8, Nz: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunTransient(m, fl, sim.Options{
			Dt:    3600,
			Steps: 1,
			Wells: []sim.Well{{X: 2, Y: 2, Rate: 2.0}, {X: 7, Y: 5, Rate: -2.0}},
			Faces: refflux.FacesAll,
		})
		if err != nil {
			t.Fatal(err)
		}
		// sim reports no per-iteration history; the final residual's bits
		// stand in for it.
		st := res.Steps[0]
		got := pinned{
			pressure:   bitsHash(res.Pressure),
			iterations: st.Iterations,
			history:    []string{bitsHash([]float64{st.Residual})},
		}
		checkPinned(t, "sim", got, pinned{"87bb3d792c075dbcfcd14de789bd321b0a81bd0c35dd8d3bc6789dc78767a35b", 171, []string{"81dc895da384679335c8e41df213c6ee25626b67c72e461d7c10bdff8462c71e"}})
	})
}
