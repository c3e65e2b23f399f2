package main

import (
	"repro/internal/mesh"
	"repro/internal/umesh"
)

// sizes fixes every problem size of a run. fullSizes is the benchmark;
// the tests run the same code on smallSizes.
type sizes struct {
	// radial is the 15360-cell mesh serve-mixed and solve-ladder run on:
	// it fits in cache, so those workloads measure the solver path.
	radial umesh.RadialOptions
	// servePool is the number of distinct serve payloads, larger than the
	// memo's 64 entries so the long tail inserts and evicts; serveRate is
	// the open loop's arrival rate, about 0.3 engine utilisation on a
	// 2-CPU host.
	servePool int
	serveRate float64
	// fluxRadial is the ~1M-cell mesh of flux-sweep, whose working set is
	// several times the LLC; fluxApps applications per PartEngine.Run.
	fluxRadial umesh.RadialOptions
	fluxApps   int
	// coreDims is the structured mesh of flux-sweep's core engine run,
	// coreApps applications per RunFlatParallel call.
	coreDims mesh.Dims
	coreApps int
	// triadArrayBytes sizes each triad array (0: four times the LLC).
	triadArrayBytes int
}

func radialMesh(rings, sectors, refine int) umesh.RadialOptions {
	return umesh.RadialOptions{Rings: rings, BaseSectors: sectors, RefineEvery: refine,
		R0: 1, DR: 4, Dz: 4, PermMD: 200}
}

var fullSizes = sizes{
	radial:     radialMesh(64, 64, 16),
	servePool:  1024,
	serveRate:  40,
	fluxRadial: radialMesh(512, 512, 128), // 983040 cells
	fluxApps:   2,
	coreDims:   mesh.Dims{Nx: 128, Ny: 128, Nz: 8},
	coreApps:   2,
}

var smallSizes = sizes{
	radial:          radialMesh(16, 16, 8),
	servePool:       96,
	serveRate:       40,
	fluxRadial:      radialMesh(32, 32, 16),
	fluxApps:        2,
	coreDims:        mesh.Dims{Nx: 8, Ny: 8, Nz: 4},
	coreApps:        2,
	triadArrayBytes: 1 << 20,
}
