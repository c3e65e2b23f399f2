package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/physics"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/umesh"
)

// solve-ladder: one caller, closed loop, alternating Solve calls on two
// resident TransientSolvers, jacobi (many cheap iterations: apply, dispatch
// and barriers) and amg (few iterations, its host-serial coarse solve in
// reduce). It bypasses serve, so all of its time is in umesh, solver and
// exec.

// ladderRungs are the two rungs, op and op2 in that order.
var ladderRungs = []solver.PrecondKind{solver.PrecondJacobi, solver.PrecondAMG}

// ladderParts and ladderSteps fix the solve: 8 RCB parts, 3 backward-Euler
// steps per call.
const (
	ladderParts = 8
	ladderSteps = 3
)

func ladderOptions(kind solver.PrecondKind, workers int) umesh.TransientOptions {
	o := umesh.TransientOptions{Dt: 3600, Steps: ladderSteps, Porosity: umesh.DefaultPorosity, Workers: workers}
	o.Solver.Tol = 1e-8
	o.Solver.MaxIter = 800
	o.Solver.PrecondKind = kind
	return o
}

// wellPair draws an injector and a producer at distinct cells, with a rate
// in [1, 3) kg/s.
func wellPair(rng *rand.Rand, cells int) (in, out int, rate float64) {
	in = rng.Intn(cells)
	out = rng.Intn(cells - 1)
	if out >= in {
		out++
	}
	return in, out, 1 + 2*rng.Float64()
}

// ladderWells draws the wells of one solve.
func ladderWells(rng *rand.Rand, cells int) []umesh.Well {
	in, out, rate := wellPair(rng, cells)
	return []umesh.Well{{Cell: in, Rate: rate}, {Cell: out, Rate: -rate}}
}

// ladderSetup is the resident state: the mesh, its partition and one
// compiled solver per rung.
type ladderSetup struct {
	u       *umesh.Mesh
	solvers []*umesh.TransientSolver
	rcbS    float64
	compile []float64 // seconds per rung
}

func (s *ladderSetup) close() {
	for _, ts := range s.solvers {
		ts.Close()
	}
}

// ladderSolve is one timed call: what verification and the per-layer
// metrics need of it, not the whole result, so memory does not grow with
// the number of calls.
type ladderSolve struct {
	rung       int
	wells      []umesh.Well
	dur        time.Duration
	hash       string
	iterations int
	apps       int
	phase      umesh.PhaseSeconds
	comm       umesh.CommCounters
	traced     bool
}

func runSolveLadder(c *runCtx) error {
	o := c.out
	setup, setupS, err := buildRepeated(setupRepeats, func() (*ladderSetup, error) {
		s := &ladderSetup{}
		var err error
		if s.u, err = umesh.NewRadialMesh(c.size.radial); err != nil {
			return nil, err
		}
		t0 := time.Now()
		part, err := umesh.RCB(s.u, bits.TrailingZeros(ladderParts))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		c.tr.span(0, 0, "umesh.rcb", t0, t1)
		s.rcbS = t1.Sub(t0).Seconds()
		warm := []umesh.Well{{Cell: s.u.WellIndex(), Rate: 2}, {Cell: s.u.NumCells - 1, Rate: -2}}
		for _, kind := range ladderRungs {
			start := time.Now()
			ts, err := umesh.NewTransientSolver(s.u, part, physics.DefaultFluid(), ladderOptions(kind, nproc()))
			if err != nil {
				s.close()
				return nil, err
			}
			c.tr.span(0, 0, "umesh.compile", start, time.Now())
			s.solvers = append(s.solvers, ts)
			s.compile = append(s.compile, time.Since(start).Seconds())
			if _, err := ts.Solve(umesh.TransientOptions{Wells: warm}); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", kind, err)
			}
		}
		return s, nil
	}, (*ladderSetup).close)
	if err != nil {
		return err
	}
	defer setup.close()
	o.set("setup_s", setupS, "s")

	// Timed closed loop: the rungs alternate, each call with fresh wells.
	rng := rand.New(rand.NewSource(c.seed))
	var runs []ladderSolve
	meter := startAllocMeter()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || len(runs) < 2*len(ladderRungs); i++ {
		rung := i % len(ladderRungs)
		wells := ladderWells(rng, setup.u.NumCells)
		tr := c.traced(i / len(ladderRungs))
		start := time.Now()
		res, err := setup.solvers[rung].Solve(umesh.TransientOptions{Wells: wells})
		end := time.Now()
		tr.span(0, int64(i+1), "umesh.solve", start, end)
		o.attempted++
		if err != nil {
			o.fail("solve %d (%s): %v", i, ladderRungs[rung], err)
			continue
		}
		runs = append(runs, ladderSolve{rung: rung, wells: wells, dur: end.Sub(start),
			hash: serve.PressureHash(res.Pressure), iterations: totalIterations(res),
			apps: res.OperatorApplications, phase: res.Phase, comm: res.Comm, traced: tr != nil})
	}
	meter.stop(o, len(runs))

	// Verification: every solve against the serial reference path with the
	// same wells. The reference solves are also the single-thread baseline.
	refMs := make([][]float64, len(ladderRungs))
	refs := make([]ladderSolve, len(runs))
	err = parallelFor(len(runs), func() (func(int) error, func(), error) {
		ser := make([]*umesh.TransientSolver, len(ladderRungs))
		closeAll := func() {
			for _, s := range ser {
				if s != nil {
					s.Close()
				}
			}
		}
		for r, kind := range ladderRungs {
			s, err := umesh.NewTransientSolver(setup.u, nil, physics.DefaultFluid(), ladderOptions(kind, 1))
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			ser[r] = s
		}
		return func(k int) error {
			run := runs[k]
			start := time.Now()
			res, err := ser[run.rung].Solve(umesh.TransientOptions{Wells: run.wells})
			if err != nil {
				return fmt.Errorf("serial reference of solve %d: %w", k, err)
			}
			refs[k] = ladderSolve{dur: time.Since(start), hash: serve.PressureHash(res.Pressure), iterations: totalIterations(res)}
			return nil
		}, closeAll, nil
	})
	if err != nil {
		return err
	}
	good := 0
	for k, run := range runs {
		ref := refs[k]
		refMs[run.rung] = append(refMs[run.rung], ms(ref.dur))
		if run.hash != ref.hash || run.iterations != ref.iterations {
			o.fail("solve %d (%s): hash %.12s iterations %d, reference %.12s iterations %d",
				k, ladderRungs[run.rung], run.hash, run.iterations, ref.hash, ref.iterations)
			continue
		}
		good++
	}
	o.set("goodput", float64(good)/c.seconds, "1/s")

	// Metrics per rung.
	unreconciled := 0
	overhead := 0.0
	for r, kind := range ladderRungs {
		var lat, traced, plain, compute, reduce, exchange []float64
		var iters, apps, halo, disp, barr float64
		n := 0
		for _, run := range runs {
			if run.rung != r {
				continue
			}
			d := ms(run.dur)
			lat = append(lat, d)
			if run.traced {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
			ph := run.phase
			compute = append(compute, 1e3*ph.Compute)
			reduce = append(reduce, 1e3*ph.Reduce)
			exchange = append(exchange, 1e3*ph.Exchange)
			if 1e3*ph.Total() > d {
				unreconciled++
			}
			iters += float64(run.iterations)
			apps += float64(run.apps)
			halo += float64(run.comm.HaloWords)
			disp += float64(run.comm.Dispatches)
			barr += float64(run.comm.Barriers)
			n++
		}
		if n == 0 {
			return fmt.Errorf("no %s solve completed", kind)
		}
		prefix := "op"
		if r == 1 {
			prefix = "op2"
		}
		o.set(prefix+"_p50_ms", quantile(lat, 0.5), "ms")
		o.set(prefix+"_p90_ms", quantile(lat, 0.9), "ms")
		o.set("solve_"+string(kind)+"_p50_ms", quantile(lat, 0.5), "ms")
		o.set("solve_"+string(kind)+"_p90_ms", quantile(lat, 0.9), "ms")
		o.set("umesh.compute_ms."+string(kind), quantile(compute, 0.5), "ms")
		o.set("umesh.reduce_ms."+string(kind), quantile(reduce, 0.5), "ms")
		o.set("umesh.exchange_ms."+string(kind), quantile(exchange, 0.5), "ms")
		o.set("umesh.iterations."+string(kind), iters/float64(n), "count")
		o.set("umesh.op_apps_per_iter."+string(kind), apps/iters, "count")
		o.set("umesh.halo_words_per_iter."+string(kind), halo/iters, "count")
		o.set("exec.dispatches_per_iter."+string(kind), disp/iters, "count")
		o.set("exec.barriers_per_iter."+string(kind), barr/iters, "count")
		o.set("umesh.serial_ref_ms."+string(kind), quantile(refMs[r], 0.5), "ms")
		o.set("umesh.compile_ms."+string(kind), 1e3*setup.compile[r], "ms")
		o.set("umesh.reduce_share."+string(kind), quantile(reduce, 0.5)/quantile(lat, 0.5), "ratio")
		overhead += overheadPct(traced, plain) / float64(len(ladderRungs))
	}
	o.set("umesh.rcb_s", setup.rcbS, "s")
	if c.tr != nil {
		o.set("bench.trace_overhead_pct", overhead, "%")
		o.set("bench.unreconciled_spans", float64(unreconciled), "count")
	}
	return nil
}
