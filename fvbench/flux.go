package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/umesh"
)

// flux-sweep: repeated TPFA flux residual applications, the paper's kernel,
// through both engines: umesh.PartEngine.Run on a ~1M-cell radial mesh
// (op) and core.RunFlatParallel on a structured mesh (op2). The radial
// working set is several times the LLC while the other workloads fit in
// cache, so bandwidth use and memory layout show here and nowhere else.

// fluxParts is the RCB part count of the partitioned engine.
const fluxParts = 8

// fluxSetup is the resident state: both meshes, their seeded pressure
// fields and the compiled partitioned engine.
type fluxSetup struct {
	u      *umesh.Mesh
	pres   []float32
	eng    *umesh.PartEngine
	m      *mesh.Mesh
	rcbS   float64
	buildS float64
}

func (s *fluxSetup) close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

// seededField adds seeded noise of ±amp to base.
func seededField(rng *rand.Rand, n int, base func(int) float64, amp float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = base(i) + amp*(2*rng.Float64()-1)
	}
	return f
}

func runFluxSweep(c *runCtx) error {
	o := c.out
	fl := physics.DefaultFluid()
	coreOpts := core.DefaultOptions(c.size.coreApps)
	coreOpts.Workers = nproc()
	// Each PE's simulated memory is sized to the kernel's footprint rather
	// than the CS-2's 12288 words: RunFlatParallel allocates every PE's
	// memory on each call, and at the full size one 128x128 call allocates
	// 805 MB, which took the process to a 3 GB peak. The arithmetic and the
	// Table 4 counts do not depend on the size.
	coreOpts.MemWords = core.FixedWords + core.WordsPerZ(coreOpts.BufferReuse)*c.size.coreDims.Nz
	setup, setupS, err := buildRepeated(fluxSetupRepeats, func() (*fluxSetup, error) {
		s := &fluxSetup{}
		var err error
		if s.u, err = umesh.NewRadialMesh(c.size.fluxRadial); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.seed))
		p64 := seededField(rng, s.u.NumCells, func(int) float64 { return 2e7 }, 2e5)
		s.pres = make([]float32, len(p64))
		for i, v := range p64 {
			s.pres[i] = float32(v)
		}
		t0 := time.Now()
		part, err := umesh.RCB(s.u, bits.TrailingZeros(fluxParts))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s.eng, err = umesh.NewPartEngine(s.u, part, fl, umesh.EngineOptions{Apps: c.size.fluxApps, Workers: nproc()})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		c.tr.span(0, 0, "umesh.rcb", t0, t1)
		c.tr.span(0, 0, "umesh.new_engine", t1, t2)
		s.rcbS, s.buildS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		if s.m, err = mesh.BuildDefault(c.size.coreDims); err != nil {
			s.close()
			return nil, err
		}
		m := s.m
		m.Pressure = seededField(rng, len(m.Pressure), func(i int) float64 { return m.Pressure[i] }, 2e4)
		if _, err := s.eng.Run(s.pres); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := core.RunFlatParallel(m, fl, coreOpts); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return s, nil
	}, (*fluxSetup).close)
	if err != nil {
		return err
	}
	defer setup.close()
	o.set("setup_s", setupS, "s")

	// The references, computed before the timed loop so every call's
	// output is compared bit for bit as soon as the call returns.
	uRef, err := umesh.RunCellBasedApps(setup.u, fl, setup.pres, c.size.fluxApps, umesh.PerturbAmplitude)
	if err != nil {
		return err
	}
	serialOpts := coreOpts
	serialOpts.Workers = 1
	cRef, err := core.RunFlat(setup.m, fl, serialOpts)
	if err != nil {
		return err
	}

	// Timed closed loop: the two engines alternate.
	var (
		uLat, cLat, uTraced, uPlain, coreSetup []float64
		uElapsed                               time.Duration
		uHalo, uBarriers                       uint64
		interior                               *core.PerCell
		good, uCalls, unreconciled             int
	)
	meter := startAllocMeter()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		tr := c.traced(i)
		o.attempted += 2
		start := time.Now()
		ur, err := setup.eng.Run(setup.pres)
		end := time.Now()
		tr.span(0, int64(2*i+1), "umesh.flux_run", start, end)
		switch {
		case err != nil:
			o.fail("umesh flux call %d: %v", i, err)
		case !equal64(ur.Residual, uRef):
			o.fail("umesh flux call %d: residual differs from RunCellBasedApps", i)
		default:
			good++
			uCalls++
			if ur.Elapsed > end.Sub(start) {
				unreconciled++
			}
			d := ms(end.Sub(start))
			uLat = append(uLat, d)
			if tr != nil {
				uTraced = append(uTraced, d)
			} else {
				uPlain = append(uPlain, d)
			}
			uElapsed += ur.Elapsed
			uHalo += ur.Comm.HaloWords
			uBarriers += ur.Comm.Barriers
		}

		start = time.Now()
		cr, err := core.RunFlatParallel(setup.m, fl, coreOpts)
		end = time.Now()
		tr.span(0, int64(2*i+2), "core.flux_run", start, end)
		switch {
		case err != nil:
			o.fail("core flux call %d: %v", i, err)
		case !equal32(cr.Residual, cRef.Residual):
			o.fail("core flux call %d: residual differs from RunFlat", i)
		default:
			good++
			if cr.Elapsed > end.Sub(start) {
				unreconciled++
			}
			cLat = append(cLat, ms(end.Sub(start)))
			coreSetup = append(coreSetup, ms(end.Sub(start)-cr.Elapsed))
			interior = cr.Interior
		}
	}
	meter.stop(o, o.attempted)
	if len(uLat) == 0 || len(cLat) == 0 || interior == nil {
		return fmt.Errorf("no verified flux call of each engine (%d umesh, %d core)", len(uLat), len(cLat))
	}

	uCells := float64(setup.u.NumCells * c.size.fluxApps)
	cCells := float64(c.size.coreDims.Cells() * c.size.coreApps)
	o.set("op_p50_ms", quantile(uLat, 0.5), "ms")
	o.set("op_p90_ms", quantile(uLat, 0.9), "ms")
	o.set("op2_p50_ms", quantile(cLat, 0.5), "ms")
	o.set("op2_p90_ms", quantile(cLat, 0.9), "ms")
	o.set("goodput", float64(good)/c.seconds, "1/s")
	o.set("flux_umesh_mcells_s", uCells/quantile(uLat, 0.5)/1e3, "Mcell/s")
	o.set("flux_core_mcells_s", cCells/quantile(cLat, 0.5)/1e3, "Mcell/s")
	o.set("flux_umesh_cells", float64(setup.u.NumCells), "count")
	o.set("flux_core_cells", float64(c.size.coreDims.Cells()), "count")

	apps := float64(uCalls * c.size.fluxApps)
	o.set("umesh.flux_halo_words_per_app", float64(uHalo)/apps, "count")
	o.set("exec.flux_barriers_per_app", float64(uBarriers)/apps, "count")
	o.set("umesh.flux_gbs_computed", fluxBytesPerApp(setup.u)*apps/uElapsed.Seconds()/1e9, "GB/s")
	o.set("core.flops_per_cell", interior.Flops, "count")
	o.set("core.mem_accesses_per_cell", interior.MemAccesses, "count")
	o.set("core.fabric_loads_per_cell", interior.FabricLoads, "count")
	o.set("core.setup_ms_per_call", quantile(coreSetup, 0.5), "ms")
	o.set("umesh.rcb_s", setup.rcbS, "s")
	o.set("umesh.engine_build_s", setup.buildS, "s")
	if c.tr != nil {
		o.set("bench.trace_overhead_pct", overheadPct(uTraced, uPlain), "%")
		o.set("bench.unreconciled_spans", float64(unreconciled), "count")
	}
	return nil
}

// fluxBytesPerApp is the compulsory traffic of one PartEngine application,
// computed from the CSR and vector sizes (cache misses beyond it are not
// counted): per cell the row start (4 B), pressure read and perturbed
// write (4 + 4 + 4 B), elevation (8 B) and residual write (8 B); per
// half-face the neighbour index (4 B) and transmissibility (8 B).
func fluxBytesPerApp(u *umesh.Mesh) float64 {
	halfFaces := 2 * len(u.Faces)
	return float64(u.NumCells)*(4+12+8+8) + float64(halfFaces)*(4+8)
}

func equal64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
