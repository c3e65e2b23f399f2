package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/physics"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/umesh"
)

// serve-mixed: an open loop of Poisson arrivals into Server.Handler(),
// called in-process so the numbers measure the program rather than the
// loopback stack. Payloads are wells plus 1 or 3 steps, drawn with
// Zipf-like popularity from a pool larger than the memo, so hot payloads
// read the memo while the tail inserts and evicts, and the scheduler sees
// short and long jobs side by side.

// serveEngines leaves one CPU to the load generator and the handlers, so
// generator lateness stays small while the engines are busy.
func serveEngines() int { return max(1, nproc()-1) }

// serveLatencyLimit is the goodput limit: a request answered later than
// this after its due time counts as missing.
const serveLatencyLimit = 250 * time.Millisecond

// serveZipfS is the popularity exponent of the payload pool: with 1024
// payloads about a fifth of the requests hit the memo, so the median
// request runs on an engine rather than on the ~0.1 ms memo path, whose
// timing swung by 40% between runs.
const serveZipfS = 0.7

// serveWarmPayloads is how many of the hottest payloads the set-up solves
// before timing, so the memo and both engines are warm.
const serveWarmPayloads = 8

// servePayload is one distinct request payload of the pool.
type servePayload struct {
	Wells []serve.WellSpec
	Steps int
}

// serveScenario is the interactive scenario: amg at a loose tolerance, one
// worker per engine.
func serveScenario(sz sizes) serve.Scenario {
	return serve.Scenario{
		Mesh: "radial", Rings: sz.radial.Rings, Sectors: sz.radial.BaseSectors,
		RefineEvery: sz.radial.RefineEvery, Parts: 8, Workers: 1,
		Precond: string(solver.PrecondAMG), DtSeconds: 3600, Tol: 1e-2, MaxIter: 800,
	}
}

// servePayloads draws the seeded payload pool: a well pair and 1 or 3
// steps each.
func servePayloads(seed int64, n, cells int) []servePayload {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	pool := make([]servePayload, n)
	for i := range pool {
		in, out, rate := wellPair(rng, cells)
		// Steps alternate with popularity rank, so every seed offers the
		// same mix of short and long jobs.
		steps := 1 + 2*(i%2)
		pool[i] = servePayload{
			Wells: []serve.WellSpec{{Cell: in, Rate: rate}, {Cell: out, Rate: -rate}},
			Steps: steps,
		}
	}
	return pool
}

// serveSpec is the open-loop plan's input: the pool as weighted items
// (weight ∝ 1/rank^s) and one arrival per 1/rate seconds on average over
// the run.
func serveSpec(seed int64, sz sizes, seconds float64, pool []servePayload) (loadgen.Spec, error) {
	sc := serveScenario(sz)
	items := make([]loadgen.Item, len(pool))
	for i, p := range pool {
		body, err := json.Marshal(serve.SolveRequest{Scenario: sc, Wells: p.Wells, Steps: p.Steps})
		if err != nil {
			return loadgen.Spec{}, err
		}
		w := int(math.Round(1e6 / math.Pow(float64(i+1), serveZipfS)))
		items[i] = loadgen.Item{Name: fmt.Sprintf("p%d", i), Weight: max(1, w), Body: body}
	}
	return loadgen.Spec{
		Requests:   int(math.Ceil(sz.serveRate * seconds)),
		RatePerSec: sz.serveRate,
		Seed:       seed,
		Items:      items,
	}, nil
}

// spinWindow is how long before a due time the generator stops sleeping
// and yields instead: Go's timers wake up to a millisecond late, which
// would otherwise dominate the latency of a memo hit.
const spinWindow = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// shotResult is one request's outcome on the benchmark's clock.
type shotResult struct {
	due, fire, done time.Time
	status          int
	body            []byte
}

// post sends one request body through the handler.
func post(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func runServeMixed(c *runCtx) error {
	o := c.out
	u, err := umesh.NewRadialMesh(c.size.radial)
	if err != nil {
		return err
	}
	pool := servePayloads(c.seed, c.size.servePool, u.NumCells)
	spec, err := serveSpec(c.seed, c.size, c.seconds, pool)
	if err != nil {
		return err
	}
	shots, err := loadgen.Plan(spec)
	if err != nil {
		return err
	}

	// Set-up: a fresh server, the cold request that compiles the scenario,
	// then the hottest payloads in rounds of one request per engine.
	srv, setupS, err := buildRepeated(setupRepeats, func() (*serve.Server, error) {
		s := serve.New(serve.Options{EnginesPerScenario: serveEngines()})
		h := s.Handler()
		start := time.Now()
		code, body := post(h, spec.Items[0].Body)
		c.tr.span(0, 0, "serve.compile", start, time.Now())
		if code != http.StatusOK {
			s.Drain()
			return nil, fmt.Errorf("cold request: status %d: %s", code, body)
		}
		for k := 1; k < serveWarmPayloads; k += serveEngines() {
			var (
				wg     sync.WaitGroup
				failed atomic.Int32
			)
			for j := k; j < min(k+serveEngines(), serveWarmPayloads, len(pool)); j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code, _ := post(h, spec.Items[j].Body); code != http.StatusOK {
						failed.Add(1)
					}
				}()
			}
			wg.Wait()
			if failed.Load() > 0 {
				s.Drain()
				return nil, fmt.Errorf("%d warm-up requests failed", failed.Load())
			}
		}
		return s, nil
	}, func(s *serve.Server) { s.Drain() })
	if err != nil {
		return err
	}
	defer srv.Drain()
	o.set("setup_s", setupS, "s")
	h := srv.Handler()

	// Timed open loop. Each request is timed from its due time, so a stall
	// in the generator shows as latency of the requests behind it.
	before := srv.Stats()
	meter := startAllocMeter()
	res := make([]shotResult, len(shots))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i, sh := range shots {
		due := start.Add(sh.At)
		waitUntil(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire := time.Now()
			code, body := post(h, spec.Items[sh.Item].Body)
			done := time.Now()
			res[i] = shotResult{due: due, fire: fire, done: done, status: code, body: body}
			if tr := c.traced(i); tr != nil {
				reqID := int64(i + 1)
				top := tr.newID()
				tr.span(top, reqID, "loadgen.wait", due, fire)
				tr.span(top, reqID, "serve.handle", fire, done)
				tr.record(top, 0, reqID, "bench.request", due, done)
			}
		}()
	}
	wg.Wait()
	meter.stop(o, len(shots))
	after := srv.Stats()
	o.attempted = len(shots)

	// Verification, outside the timed region: every 200 against the serial
	// reference of its payload; anything else is a failed request.
	resp := make([]*serve.SolveResponse, len(shots))
	need := map[int]bool{}
	for i, r := range res {
		if r.status != http.StatusOK {
			o.fail("request %d: status %d: %.200s", i, r.status, r.body)
			continue
		}
		resp[i] = new(serve.SolveResponse)
		if err := json.Unmarshal(r.body, resp[i]); err != nil {
			o.fail("request %d: bad body: %v", i, err)
			resp[i] = nil
			continue
		}
		need[shots[i].Item] = true
	}
	refs, err := serveReferences(c.size, pool, need)
	if err != nil {
		return err
	}
	verified := make([]bool, len(shots))
	for i, rp := range resp {
		if rp == nil {
			continue
		}
		ref := refs[shots[i].Item]
		if rp.PressureSHA256 != ref.hash || rp.Iterations != ref.iterations {
			o.fail("request %d (payload %d): hash %.12s iterations %d, reference %.12s iterations %d",
				i, shots[i].Item, rp.PressureSHA256, rp.Iterations, ref.hash, ref.iterations)
			continue
		}
		verified[i] = true
	}

	// End-to-end: requests for 1-step payloads (op) and for 3-step payloads
	// (op2), from due time to response. Split by job length, each median
	// sits inside one solve-time mode instead of between the two.
	var byClass [2][]float64
	var all, hits, lateness, queueWait, solve, render, untimed, tracedLat, plainLat []float64
	good := 0
	last := start
	var halves [2][]float64
	for i, r := range res {
		lateness = append(lateness, ms(r.fire.Sub(r.due)))
		if r.done.After(last) {
			last = r.done
		}
		rp := resp[i]
		if rp == nil {
			continue
		}
		lat := r.done.Sub(r.due)
		all = append(all, ms(lat))
		class := pool[shots[i].Item].Steps / 3 // 1 step → 0, 3 steps → 1
		byClass[class] = append(byClass[class], ms(lat))
		half := 2 * i / len(res)
		halves[half] = append(halves[half], ms(lat))
		if verified[i] && lat <= serveLatencyLimit {
			good++
		}
		render = append(render, 1e3*rp.Timings.RenderSeconds)
		if rp.MemoHit {
			hits = append(hits, ms(r.done.Sub(r.fire)))
		} else {
			queueWait = append(queueWait, 1e3*(rp.Timings.QueueSeconds-rp.Timings.SolveSeconds))
			solve = append(solve, 1e3*rp.Timings.SolveSeconds)
		}
		switch {
		case c.traced(i) != nil:
			untimed = append(untimed, ms(r.done.Sub(r.fire))-1e3*rp.Timings.TotalSeconds)
			if class == 0 {
				tracedLat = append(tracedLat, ms(lat))
			}
		case class == 0:
			plainLat = append(plainLat, ms(lat))
		}
	}
	if len(byClass[0]) == 0 || len(byClass[1]) == 0 || len(solve) == 0 {
		return fmt.Errorf("too few completed requests (%d 1-step, %d 3-step, %d on an engine)",
			len(byClass[0]), len(byClass[1]), len(solve))
	}
	o.set("op_p50_ms", quantile(byClass[0], 0.5), "ms")
	o.set("op_p90_ms", quantile(byClass[0], 0.9), "ms")
	o.set("op2_p50_ms", quantile(byClass[1], 0.5), "ms")
	o.set("op2_p90_ms", quantile(byClass[1], 0.9), "ms")
	o.set("goodput", float64(good)/c.seconds, "1/s")
	o.set("serve_p50_ms", quantile(all, 0.5), "ms")
	o.set("serve_p90_ms", quantile(all, 0.9), "ms")
	if len(all) >= 1000 {
		o.set("serve_p99_ms", quantile(all, 0.99), "ms")
	}
	o.set("serve_goodput_rps", float64(good)/c.seconds, "req/s")
	// No growing backlog: the second half of the schedule is not slower.
	o.set("serve_p90_ms_first_half", quantile(halves[0], 0.9), "ms")
	o.set("serve_p90_ms_second_half", quantile(halves[1], 0.9), "ms")
	o.set("serve_offered_rps", c.size.serveRate, "req/s")
	o.set("serve_requests", float64(len(shots)), "count")

	// Per layer.
	o.set("loadgen.lateness_p50_ms", quantile(lateness, 0.5), "ms")
	o.set("loadgen.lateness_p99_ms", quantile(lateness, 0.99), "ms")
	o.set("serve.queue_wait_p50_ms", quantile(queueWait, 0.5), "ms")
	o.set("serve.queue_wait_p99_ms", quantile(queueWait, 0.99), "ms")
	wall := last.Sub(start).Seconds()
	o.set("serve.engine_busy_frac",
		(after.SolveSecondsTotal-before.SolveSecondsTotal)/(float64(serveEngines())*wall), "ratio")
	o.set("serve.sched_reorders", float64(after.SchedReorders-before.SchedReorders), "count")
	o.set("serve.sched_aged_picks", float64(after.SchedAgedPicks-before.SchedAgedPicks), "count")
	o.set("serve.engine_solve_p50_ms", quantile(solve, 0.5), "ms")
	o.set("serve.render_p50_ms", quantile(render, 0.5), "ms")
	o.set("serve.memo_hit_ratio", float64(len(hits))/float64(len(all)), "ratio")
	if len(hits) > 0 {
		o.set("serve.memo_hit_p50_ms", quantile(hits, 0.5), "ms")
	}
	o.set("serve.solves", float64(after.Solves-before.Solves), "count")
	o.set("serve.batched_requests", float64(after.BatchedRequests-before.BatchedRequests), "count")
	rejected := func(s serve.StatsSnapshot) uint64 {
		return s.RejectedRate + s.RejectedQueue + s.RejectedDraining + s.RejectedInvalid + s.RejectedDegraded
	}
	o.set("serve.rejected", float64(rejected(after)-rejected(before)), "count")
	o.set("serve.cache_misses", float64(after.CacheMisses-before.CacheMisses), "count")
	if c.tr != nil {
		o.set("serve.untimed_p50_ms", quantile(untimed, 0.5), "ms")
		o.set("bench.trace_overhead_pct", overheadPct(tracedLat, plainLat), "%")
		o.set("bench.unreconciled_spans", 0, "count") // wait + handle = request by construction
	}
	return nil
}

// serveRef is a payload's serial reference result.
type serveRef struct {
	hash       string
	iterations int
}

// serveReferences solves every needed payload on the serial reference path
// (NewTransientSolver with a nil partition), one solver per CPU.
func serveReferences(sz sizes, pool []servePayload, need map[int]bool) (map[int]serveRef, error) {
	sc := serveScenario(sz)
	u, err := umesh.NewRadialMesh(sz.radial)
	if err != nil {
		return nil, err
	}
	tmpl := umesh.TransientOptions{Dt: sc.DtSeconds, Porosity: umesh.DefaultPorosity, Workers: 1}
	tmpl.Solver.Tol = sc.Tol
	tmpl.Solver.MaxIter = sc.MaxIter
	tmpl.Solver.PrecondKind = solver.PrecondKind(sc.Precond)
	var idx []int
	for i := range pool {
		if need[i] {
			idx = append(idx, i)
		}
	}
	out := make([]serveRef, len(idx))
	err = parallelFor(len(idx), func() (func(int) error, func(), error) {
		s, err := umesh.NewTransientSolver(u, nil, physics.DefaultFluid(), tmpl)
		if err != nil {
			return nil, nil, err
		}
		return func(k int) error {
			p := pool[idx[k]]
			req := umesh.TransientOptions{Steps: p.Steps}
			for _, w := range p.Wells {
				req.Wells = append(req.Wells, umesh.Well{Cell: w.Cell, Rate: w.Rate})
			}
			r, err := s.Solve(req)
			if err != nil {
				return fmt.Errorf("serial reference of payload %d: %w", idx[k], err)
			}
			out[k] = serveRef{hash: serve.PressureHash(r.Pressure), iterations: totalIterations(r)}
			return nil
		}, s.Close, nil
	})
	if err != nil {
		return nil, err
	}
	refs := make(map[int]serveRef, len(idx))
	for k, i := range idx {
		refs[i] = out[k]
	}
	return refs, nil
}
