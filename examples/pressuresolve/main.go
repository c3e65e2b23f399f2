// Pressure solve: the paper's §8 extension in action. The flux kernel
// becomes a matrix-free linear operator (one dataflow application per
// operator apply, the "1000 applications" pattern), and a Jacobi-
// preconditioned conjugate-gradient iteration solves one backward-Euler
// pressure step of Eq. (2) for an injector/producer pair.
package main

import (
	"fmt"
	"log"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
)

func main() {
	dims := mesh.Dims{Nx: 16, Ny: 12, Nz: 6}
	m, err := mesh.BuildDefault(dims)
	if err != nil {
		log.Fatal(err)
	}
	fl := physics.DefaultFluid()

	// One implicit pressure step of a day, frozen mobilities.
	sys, err := solver.NewPressureSystem(m, fl, 86400, refflux.FacesAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pressure system: %v cells, frozen mobility %.3e, SPD\n",
		dims.Cells(), sys.Mobility)

	// The matrix-free operator is the dataflow flux kernel itself.
	op := solver.NewDataflowOperator(sys, fl)
	if err := op.Verify(); err != nil {
		log.Fatal(err)
	}

	// Injector at (3,3), balanced producer mirrored across the field.
	b, err := solver.WellSource(m, 3, 3, 5.0)
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, op.Size())
	st, err := solver.CG(op, x, b, solver.Options{Tol: 1e-6, MaxIter: 300, PrecondDiag: sys.Diagonal()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG converged in %d iterations (rel residual %.2e)\n", st.Iterations, st.Residual)
	fmt.Printf("dataflow operator applications: %d (each one = one kernel application on the wafer)\n",
		op.Applications)

	inj := x[m.Index(3, 3, dims.Nz/2)]
	prod := x[m.Index(dims.Nx-4, dims.Ny-4, dims.Nz/2)]
	fmt.Printf("pressure change: injector %+.3e, producer %+.3e (Pa per unit rate)\n", inj, prod)
	if inj <= 0 || prod >= 0 {
		log.Fatal("pressure response has the wrong sign")
	}

	// Sanity: true residual against the float64 host assembly.
	host := &solver.HostOperator{Sys: sys}
	ax := make([]float64, len(x))
	if err := host.Apply(ax, x); err != nil {
		log.Fatal(err)
	}
	var num, den float64
	for i := range ax {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
		den += b[i] * b[i]
	}
	fmt.Printf("true residual vs float64 host operator: %.2e\n", num/den)
	fmt.Println("\nThe same kernel that computes fluxes serves as the Krylov operator —")
	fmt.Println("the paper's §8 path toward full implicit simulation on the wafer.")
}
