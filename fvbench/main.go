// Command fvbench is the repository's benchmark. It runs one seeded workload
// per invocation, driving the layers through their public functions in one
// process, checks every output against the serial reference path outside
// the timed region, and prints the metrics by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// records spans around every public call it makes and reports the
// per-layer set instead (see README.md for every name and the layer it
// belongs to). Run it through run.sh from the repository root:
//
//	bash fvbench/run.sh --workload solve-ladder --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/umesh"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric of the final JSON line and fixes its unit.
type spec struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json: the final JSON line carries
// exactly these names, end-to-end under -trace 0 and per-layer under
// -trace 1. Each workload maps its two operation classes onto op and op2
// (README.md lists the mapping); a per-layer metric of a layer the workload
// does not reach reports 0. The p90s are printed but not in the final line:
// on a shared 2-CPU host their spread between runs exceeded any bound a
// regression gate can use.
var endToEnd = []spec{
	{"op_p50_ms", "ms"},
	{"op2_p50_ms", "ms"},
	{"goodput", "1/s"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []spec{
	{"loadgen.lateness_p99_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.engine_busy_frac", "ratio"},
	{"serve.sched_reorders", "count"},
	{"serve.sched_aged_picks", "count"},
	{"serve.engine_solve_p50_ms", "ms"},
	{"serve.render_p50_ms", "ms"},
	{"serve.untimed_p50_ms", "ms"},
	{"serve.memo_hit_ratio", "ratio"},
	{"serve.memo_hit_p50_ms", "ms"},
	{"serve.solves", "count"},
	{"serve.batched_requests", "count"},
	{"serve.rejected", "count"},
	{"serve.cache_misses", "count"},
	{"umesh.compute_ms.jacobi", "ms"},
	{"umesh.reduce_ms.jacobi", "ms"},
	{"umesh.exchange_ms.jacobi", "ms"},
	{"umesh.iterations.jacobi", "count"},
	{"umesh.op_apps_per_iter.jacobi", "count"},
	{"umesh.halo_words_per_iter.jacobi", "count"},
	{"exec.dispatches_per_iter.jacobi", "count"},
	{"exec.barriers_per_iter.jacobi", "count"},
	{"umesh.serial_ref_ms.jacobi", "ms"},
	{"umesh.compile_ms.jacobi", "ms"},
	{"umesh.compute_ms.amg", "ms"},
	{"umesh.reduce_ms.amg", "ms"},
	{"umesh.exchange_ms.amg", "ms"},
	{"umesh.iterations.amg", "count"},
	{"umesh.op_apps_per_iter.amg", "count"},
	{"umesh.halo_words_per_iter.amg", "count"},
	{"exec.dispatches_per_iter.amg", "count"},
	{"exec.barriers_per_iter.amg", "count"},
	{"umesh.serial_ref_ms.amg", "ms"},
	{"umesh.compile_ms.amg", "ms"},
	{"umesh.flux_halo_words_per_app", "count"},
	{"exec.flux_barriers_per_app", "count"},
	{"umesh.flux_gbs_computed", "GB/s"},
	{"host.triad_gbs", "GB/s"},
	{"core.flops_per_cell", "count"},
	{"core.mem_accesses_per_cell", "count"},
	{"core.fabric_loads_per_cell", "count"},
	{"core.setup_ms_per_call", "ms"},
	{"umesh.rcb_s", "s"},
	{"umesh.engine_build_s", "s"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_op", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unreconciled_spans", "count"},
}

// workloads maps each -workload name to its driver.
var workloads = map[string]func(*runCtx) error{
	"serve-mixed":  runServeMixed,
	"solve-ladder": runSolveLadder,
	"flux-sweep":   runFluxSweep,
}

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so a later change that moves work into set-up shows against a
// steady figure. flux-sweep's set-up takes seconds and varies less, so it
// builds fewer times.
const (
	setupRepeats     = 5
	fluxSetupRepeats = 3
)

// runCtx is one invocation: its inputs, its size, its tracer (nil when
// tracing is off) and the outcome the workload fills in.
type runCtx struct {
	seed    int64
	seconds float64
	size    sizes
	tr      *tracer
	out     *outcome
}

// traced returns the tracer operation i records its spans into, nil when
// it records none. A traced run records every other operation, so the
// untraced ones beside them measure the tracing overhead under the same
// conditions.
func (c *runCtx) traced(i int) *tracer {
	if c.tr == nil || i%2 == 0 {
		return nil
	}
	return c.tr
}

// outcome is what a workload reports: operations attempted and failed,
// the first failures' descriptions, and every metric it measured.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]metric
	hostLine          string
}

func newOutcome() *outcome { return &outcome{values: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.values[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps its description (the first
// ten are printed).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-mixed, solve-ladder or flux-sweep")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fvbench: need -workload serve-mixed|solve-ladder|flux-sweep, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if runtime.GOMAXPROCS(0) > nproc() {
		runtime.GOMAXPROCS(nproc())
	}
	c := &runCtx{seed: *seed, seconds: *seconds, size: fullSizes, out: newOutcome()}
	if *trace == 1 {
		c.tr = newTracer()
	}
	if err := execute(c, wl); err != nil {
		fmt.Fprintf(stderr, "fvbench: %s: %v\n", *name, err)
		return 1
	}
	if c.tr != nil && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := c.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "fvbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if err := report(stdout, *name, c); err != nil {
		fmt.Fprintf(stderr, "fvbench: %v\n", err)
		return 1
	}
	if c.out.failed > 0 {
		return 1
	}
	return 0
}

// execute runs the workload, then the host block: the triad runs last so
// its arrays never count in mem_peak_mb.
func execute(c *runCtx, wl func(*runCtx) error) error {
	if err := wl(c); err != nil {
		return err
	}
	if c.out.attempted == 0 {
		return errors.New("no operation ran")
	}
	c.out.set("mem_peak_mb", peakRSSMB(), "MB")
	h := probeHost(c.size.triadArrayBytes)
	c.out.set("host.triad_gbs", h.TriadGBs, "GB/s")
	hostLine, err := json.Marshal(h)
	if err != nil {
		return err
	}
	c.out.hostLine = string(hostLine)
	return nil
}

// report prints every measured metric by name, then the failures, then the
// final JSON line.
func report(w io.Writer, name string, c *runCtx) error {
	o := c.out
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", name, c.seed, c.seconds, c.tr != nil)
	fmt.Fprintf(w, "host %s\n", o.hostLine)
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %16.6f %s\n", n, o.values[n].Value, o.values[n].Unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
	list := endToEnd
	if c.tr != nil {
		list = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]metric{}}
	for _, s := range list {
		m, ok := o.values[s.name]
		if !ok {
			if c.tr == nil {
				return fmt.Errorf("end-to-end metric %s was not measured", s.name)
			}
			m = metric{Unit: s.unit} // a layer this workload does not reach
		}
		if m.Unit != s.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		res.Metrics[s.name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// buildRepeated runs build n times and keeps the last result,
// closing the others; it returns the median build time in seconds. Memory
// is returned to the OS between builds so the peak is one set-up's.
func buildRepeated[T any](n int, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		kept  T
		times []float64
	)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			closeFn(v)
			runtime.GC()
			debug.FreeOSMemory()
			continue
		}
		kept = v
	}
	return kept, quantile(times, 0.5), nil
}

// quantile is loadgen.Quantile over an unsorted sample.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return loadgen.Quantile(s, q)
}

// allocMeter measures allocation and GC cycles across a timed loop.
type allocMeter struct{ alloc, gcs uint64 }

func startAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, uint64(ms.NumGC)}
}

// stop sets runtime.alloc_kb_per_op and runtime.gc_per_op over ops
// operations.
func (a allocMeter) stop(o *outcome, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.set("runtime.alloc_kb_per_op", float64(ms.TotalAlloc-a.alloc)/1024/float64(ops), "KB")
	o.set("runtime.gc_per_op", float64(uint64(ms.NumGC)-a.gcs)/float64(ops), "count")
}

// peakRSSMB is the process's peak resident memory so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nproc is the CPU count every workload sizes its parallelism by:
// GOMAXPROCS, engines × workers and the triad's threads stay within it.
func nproc() int { return runtime.NumCPU() }

// totalIterations sums a result's Krylov iterations over its steps.
func totalIterations(r *umesh.TransientResult) int {
	n := 0
	for _, st := range r.Steps {
		n += st.Iterations
	}
	return n
}

// parallelFor runs body(k) for k in [0, n) on one goroutine per CPU; each
// goroutine gets its own state from newWorker (body, close).
func parallelFor(n int, newWorker func() (func(int) error, func(), error)) error {
	workers := min(nproc(), max(n, 1))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, closeFn, err := newWorker()
			if err != nil {
				errs[w] = err
				return
			}
			defer closeFn()
			for k := w; k < n; k += workers {
				if err := body(k); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overheadPct compares the medians of traced and untraced operations.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
}
