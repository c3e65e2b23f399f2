// Package serve is the resident-engine serving layer: a long-running
// HTTP/JSON front end over the partitioned unstructured implicit solver that
// keeps compiled engines (umesh.TransientSolver — PartEngine, PartOperator
// and their phase programs) resident behind a scenario cache, so a repeat
// request skips plan compilation entirely and pays only queue + solve +
// render — and keeps completed results behind a bounded memo, so an
// identical repeat request skips the engines too.
//
// Request path:
//
//	POST /v1/solve → admission (token bucket, 429) → bounded queue (429)
//	  → result memo (hit: completed response, no engine; concurrent
//	    identical misses coalesce on one solve — single flight)
//	  → scenario cache (hit: resident engines; miss: compile once)
//	  → per-scenario dispatcher (shortest-job-first over an online cost
//	    estimate with an aging credit; identical payloads batched, one
//	    solve per batch; least-loaded resident engine) → render (JSON)
//
// Determinism: a served solve runs the exact one-shot code path
// (RunTransientPartitioned is one compile-and-solve cycle of the same
// TransientSolver the cache keeps resident), so responses are bit-identical
// to the equivalent CLI invocation — including after engine reuse across
// requests and when served from the result memo, which the test suite
// asserts.
//
// Clocks: every duration the layer reports (Timings, the *SecondsTotal
// stats) derives from the injected Options.Now — never from time.Since —
// so tests and replays can drive the layer on a fake clock and read sane
// numbers.
//
// Shutdown: Drain stops admission (503), waits for every admitted request
// to complete, then retires the cache and its engines — the SIGTERM path of
// cmd/fvserve.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/solver"
	"repro/internal/umesh"
)

// Defaults for the zero-valued Options fields. Exported so the other ends
// of the system (bench configs, CLI flag tables) echo the serving layer's
// effective configuration instead of restating the numbers and drifting.
const (
	DefaultCacheCapacity      = 4
	DefaultEnginesPerScenario = 1
	DefaultQueueDepth         = 64
	DefaultBatchMax           = 8
	DefaultMaxCells           = 1 << 20
	DefaultMemoCapacity       = 64
)

// MaxBodyBytes bounds a /v1/solve request body: the decoder never reads
// past it, and a longer body is rejected with 400. The largest legitimate
// request — a scenario plus its wells — is a few kilobytes.
const MaxBodyBytes = 1 << 20

// Options configures a Server. The zero value serves with the documented
// defaults.
type Options struct {
	// CacheCapacity bounds the resident scenario count; the least recently
	// used scenario is evicted (engines released once idle) beyond it.
	// Default DefaultCacheCapacity.
	CacheCapacity int
	// EnginesPerScenario sizes each scenario's resident engine pool —
	// batches dispatch to the least-loaded member. Default
	// DefaultEnginesPerScenario.
	EnginesPerScenario int
	// QueueDepth bounds the admitted-but-unfinished job count; request
	// number QueueDepth+1 is rejected with 429. Default DefaultQueueDepth.
	QueueDepth int
	// RatePerSec is the token-bucket refill rate of the admission gate
	// (requests per second, sustained); 0 disables rate admission.
	RatePerSec float64
	// Burst is the token-bucket capacity (instantaneous excursion above the
	// sustained rate). Default: QueueDepth when rate admission is on.
	Burst int
	// BatchMax bounds how many queued same-scenario requests one dispatch
	// window drains into a batch. Default DefaultBatchMax.
	BatchMax int
	// MaxCells rejects scenarios whose mesh would exceed this many cells
	// before compiling anything. Default DefaultMaxCells; negative disables.
	MaxCells int
	// MemoCapacity bounds the result memo — completed responses keyed by
	// (scenario, payload), served without touching an engine. Default
	// DefaultMemoCapacity; negative disables memoization.
	MemoCapacity int
	// DefaultDeadline bounds every solve that does not carry its own
	// deadline_ms: past it the Krylov loop cancels at the next iteration
	// boundary and the request gets 504 with partial-progress diagnostics.
	// 0 leaves solves unbounded unless the request asks.
	DefaultDeadline time.Duration
	// BrownoutHighSeconds enables overload brownout: when the summed cost
	// estimates of admitted engine-bound requests exceed it, admission
	// enters degraded mode and sheds the costliest requests with 503 (see
	// BrownoutShedSeconds) until the estimate falls below
	// BrownoutLowSeconds. 0 disables brownout.
	BrownoutHighSeconds float64
	// BrownoutLowSeconds is the exit watermark of the brownout hysteresis.
	// Default: BrownoutHighSeconds/2.
	BrownoutLowSeconds float64
	// BrownoutShedSeconds is the per-request cost at or above which degraded
	// mode sheds (cheaper requests keep being served). Default:
	// BrownoutHighSeconds/4.
	BrownoutShedSeconds float64
	// SolveHook, when non-nil, runs immediately before every engine step
	// solve with that solve's cancel hook. It exists for deterministic
	// fault injection (internal/faultinject) — production servers leave it
	// nil.
	SolveHook func(cancel func() bool) error
	// Now overrides the clock (tests, replays). Every duration the layer
	// reports derives from it. Default time.Now.
	Now func() time.Time
}

// WithDefaults returns the options with every zero field replaced by its
// documented default — exactly the configuration New serves under. Exported
// so benchmarks and CLIs report the effective knobs instead of restating
// the defaults.
func (o Options) WithDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = DefaultCacheCapacity
	}
	if o.EnginesPerScenario == 0 {
		o.EnginesPerScenario = DefaultEnginesPerScenario
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.Burst == 0 {
		o.Burst = o.QueueDepth
	}
	if o.BatchMax == 0 {
		o.BatchMax = DefaultBatchMax
	}
	if o.MaxCells == 0 {
		o.MaxCells = DefaultMaxCells
	}
	if o.MaxCells < 0 {
		o.MaxCells = 0
	}
	if o.MemoCapacity == 0 {
		o.MemoCapacity = DefaultMemoCapacity
	}
	if o.MemoCapacity < 0 {
		o.MemoCapacity = 0
	}
	if o.BrownoutHighSeconds > 0 {
		if o.BrownoutLowSeconds == 0 {
			o.BrownoutLowSeconds = o.BrownoutHighSeconds / 2
		}
		if o.BrownoutShedSeconds == 0 {
			o.BrownoutShedSeconds = o.BrownoutHighSeconds / 4
		}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// WellSpec is one constant-rate well of a request (positive injects).
type WellSpec struct {
	Cell int     `json:"cell"`
	Rate float64 `json:"rate"`
}

// SolveRequest is the POST /v1/solve body: which compiled scenario to run
// on, and the per-request inputs the resident engine is re-aimed at.
type SolveRequest struct {
	Scenario Scenario `json:"scenario"`
	// Wells drive the flow; empty selects the scenario's default pair
	// (inject at the well cell, produce at the last cell, ±2 kg/s).
	Wells []WellSpec `json:"wells,omitempty"`
	// Steps is the backward-Euler step count (default 1).
	Steps int `json:"steps,omitempty"`
	// ReturnPressure includes the full final pressure field in the response
	// (the SHA-256 of its raw bits is always included).
	ReturnPressure bool `json:"return_pressure,omitempty"`
	// NoMemo bypasses result memoization: the solve always runs on an
	// engine and its result is not stored. Benchmarks use it to measure the
	// engine path behind a populated memo.
	NoMemo bool `json:"no_memo,omitempty"`
	// DeadlineMillis bounds this request's solve: past the deadline the
	// Krylov loop cancels at the next iteration boundary and the request
	// gets 504 with the iterations it completed. 0 falls back to the
	// server's default deadline. The deadline does not change the payload
	// identity — batch-mates sharing one solve run it to the loosest member
	// deadline, and memo hits are served regardless.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
}

// effectiveSteps is the step count the engine will run (0 defaults to 1).
func (r SolveRequest) effectiveSteps() int {
	if r.Steps == 0 {
		return 1
	}
	return r.Steps
}

// payloadKey identifies the solve-relevant request payload — requests with
// equal keys on the same scenario can share one solve (and one memo slot).
func (r SolveRequest) payloadKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d", r.effectiveSteps())
	for _, w := range r.Wells {
		fmt.Fprintf(&b, "|%d:%g", w.Cell, w.Rate)
	}
	return b.String()
}

// transientOptions maps the per-request inputs onto the compiled template
// (zero fields defer to it).
func (r SolveRequest) transientOptions() umesh.TransientOptions {
	opts := umesh.TransientOptions{Steps: r.effectiveSteps()}
	for _, w := range r.Wells {
		opts.Wells = append(opts.Wells, umesh.Well{Cell: w.Cell, Rate: w.Rate})
	}
	return opts
}

// StepReport is one step's summary in a response.
type StepReport struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	MaxDeltaP  float64 `json:"max_delta_p"`
	MassError  float64 `json:"mass_error"`
}

// Timings is the per-request wall-clock breakdown, derived from the
// injected clock.
type Timings struct {
	// QueueSeconds spans enqueue to solved (queue wait plus the batch's
	// solve); SolveSeconds is the engine solve alone; CompileSeconds is the
	// scenario compilation this request paid (0 on a cache hit);
	// RenderSeconds is response marshalling. All zero on a memo hit — no
	// engine was involved.
	QueueSeconds   float64 `json:"queue_seconds"`
	CompileSeconds float64 `json:"compile_seconds"`
	SolveSeconds   float64 `json:"solve_seconds"`
	RenderSeconds  float64 `json:"render_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
}

// SolveResponse is the POST /v1/solve response body.
type SolveResponse struct {
	ScenarioKey string `json:"scenario_key"`
	Cells       int    `json:"cells"`
	// CacheHit reports whether the scenario's engines were already resident;
	// Batched whether this request shared a batch-mate's solve; Engine which
	// resident engine served it (-1 on a memo hit — none did); BatchSize the
	// batch it rode in.
	CacheHit  bool `json:"cache_hit"`
	Batched   bool `json:"batched"`
	Engine    int  `json:"engine"`
	BatchSize int  `json:"batch_size"`
	// MemoHit reports the response was served from the result memo;
	// MemoSolveSeconds is the memoized solve's original cost — the timing
	// provenance of a response no engine touched.
	MemoHit          bool    `json:"memo_hit,omitempty"`
	MemoSolveSeconds float64 `json:"memo_solve_seconds,omitempty"`

	Steps      []StepReport `json:"steps"`
	Iterations int          `json:"iterations"`
	// PressureSHA256 hashes the final field's raw float64 bits — the
	// bit-identity probe; Pressure is included when requested.
	PressureSHA256 string    `json:"pressure_sha256"`
	Pressure       []float64 `json:"pressure,omitempty"`

	Timings Timings `json:"timings"`
}

// errorResponse is every non-200 body. Failed solves (504 deadline, 422
// breakdown / not converged) carry partial-progress diagnostics: how many
// steps finished, how far the failing step's Krylov iteration got, and its
// residual history.
type errorResponse struct {
	Error               string    `json:"error"`
	StepsCompleted      int       `json:"steps_completed,omitempty"`
	IterationsCompleted int       `json:"iterations_completed,omitempty"`
	ResidualHistory     []float64 `json:"residual_history,omitempty"`
}

// tokenBucket is the admission gate: capacity burst, refill rate tokens/sec.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	b := &tokenBucket{rate: rate, burst: float64(burst), now: now}
	b.tokens = b.burst
	b.last = now()
	return b
}

// allow takes one token if available. A zero rate admits everything. On
// rejection, retryAfter is the bucket's actual time-to-next-token in
// seconds — what the 429's Retry-After header should carry instead of a
// hardcoded guess.
func (b *tokenBucket) allow() (ok bool, retryAfter float64) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += t.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if b.tokens < 1 {
		return false, (1 - b.tokens) / b.rate
	}
	b.tokens--
	return true, 0
}

// Server is the resident-engine serving layer. Create one with New, mount
// Handler on an http.Server, and Drain it on shutdown.
type Server struct {
	opts     Options
	cache    *cache
	memo     *memo
	admit    *tokenBucket
	brownout *brownout
	stats    Stats

	queued atomic.Int64
	// queuedCost is the estimated queue wait in seconds: the summed cost
	// estimates of admitted engine-bound requests still in flight. It
	// drives the brownout state machine and the queue-full Retry-After.
	queuedCost  atomicSeconds
	draining    atomic.Bool
	forceCancel atomic.Bool
	inflight    sync.WaitGroup

	mux *http.ServeMux
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{opts: opts}
	s.admit = newTokenBucket(opts.RatePerSec, opts.Burst, opts.Now)
	s.memo = newMemo(opts.MemoCapacity)
	s.brownout = newBrownout(opts.BrownoutHighSeconds, opts.BrownoutLowSeconds, opts.BrownoutShedSeconds, &s.stats)
	s.cache = newCache(cacheConfig{
		capacity:    opts.CacheCapacity,
		engines:     opts.EnginesPerScenario,
		queue:       opts.QueueDepth,
		batchMax:    opts.BatchMax,
		stats:       &s.stats,
		now:         opts.Now,
		forceCancel: &s.forceCancel,
		solveHook:   opts.SolveHook,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.ResidentScenarios = s.cache.size()
	snap.MemoEntries = s.memo.size()
	snap.Degraded = s.brownout.isDegraded()
	snap.QueuedCostSeconds = s.queuedCost.load()
	return snap
}

// Drain gracefully shuts the serving layer down: new requests are rejected
// with 503, every admitted request runs to completion, then the scenario
// cache retires and every resident engine is released. Safe to call once.
func (s *Server) Drain() { s.DrainWithin(0) }

// DrainWithin is Drain with a bound: if the in-flight requests have not
// completed after timeout, every remaining solve is force-cancelled (the
// Krylov loops stop at their next iteration boundary, fault-injected stalls
// unblock through the same hook) and the drain finishes once they unwind —
// a wedged solve cannot hang shutdown. timeout <= 0 waits forever. The
// bound is real wall-clock, independent of the injected stats clock: it
// guards the process's exit, not a measurement.
func (s *Server) DrainWithin(timeout time.Duration) {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
			s.forceCancel.Store(true)
		}
	}
	<-done
	s.cache.close()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) reject(w http.ResponseWriter, code int, c *atomic.Uint64, format string, args ...any) {
	c.Add(1)
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.brownout.isDegraded() {
		// Still serving (cheap work and memo hits), but shedding expensive
		// requests — 200 with the mode advertised, so load balancers can
		// steer without killing the instance.
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// retryAfterHeader sets Retry-After from a computed wait, clamped to ≥1s
// (the header is integer seconds; zero would invite an immediate hammer).
func retryAfterHeader(w http.ResponseWriter, seconds float64) {
	secs := int(math.Ceil(seconds))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// estimateCost is a request's expected engine seconds — the brownout and
// queue-wait currency. A resident scenario answers from its EWMA-refined
// cost model; otherwise the static prior (cells × rung iteration factor ×
// per-cell seconds) stands in, exactly as the dispatcher's model would be
// seeded.
func (s *Server) estimateCost(req SolveRequest) float64 {
	steps := req.effectiveSteps()
	if cm, ok := s.cache.peekCost(req.Scenario.Key()); ok {
		return cm.estimate(steps)
	}
	n := req.Scenario.normalized()
	return float64(n.cellEstimate()) * rungIterationFactor(n.Precond) * priorSecondsPerCellFactor * float64(steps)
}

// failSolve maps a solve error onto its HTTP shape: 504 for a deadline or
// drain cancellation, 422 for a Krylov breakdown or non-convergence, 500
// otherwise — each with whatever partial-progress diagnostics the engine
// attached (steps completed, iterations, residual history).
func (s *Server) failSolve(w http.ResponseWriter, err error) {
	resp := errorResponse{Error: err.Error()}
	var se *umesh.StepError
	if errors.As(err, &se) {
		resp.StepsCompleted = se.Step
		if se.Stats != nil {
			resp.IterationsCompleted = se.Stats.Iterations
			resp.ResidualHistory = se.Stats.History
		}
	}
	s.stats.Failed.Add(1)
	switch {
	case errors.Is(err, solver.ErrCancelled):
		s.stats.CancelledSolves.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, resp)
	case errors.Is(err, solver.ErrBreakdown), errors.Is(err, solver.ErrNotConverged):
		s.stats.SolverErrors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	default:
		writeJSON(w, http.StatusInternalServerError, resp)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	s.stats.Requests.Add(1)

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid,
				"serve: request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid, "bad request body: %v", err)
		return
	}
	if err := req.Scenario.Validate(s.opts.MaxCells); err != nil {
		s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid, "%v", err)
		return
	}
	if req.Steps < 0 {
		s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid, "serve: steps must be non-negative, got %d", req.Steps)
		return
	}
	if req.DeadlineMillis < 0 {
		s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid, "serve: deadline_ms must be non-negative, got %d", req.DeadlineMillis)
		return
	}
	// Negative well cells can never be valid; the upper bound is checked
	// against the compiled mesh's real cell count after the cache resolves
	// (cellEstimate is only the pre-compile MaxCells bound).
	for _, well := range req.Wells {
		if well.Cell < 0 {
			s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid,
				"serve: well cell %d is negative", well.Cell)
			return
		}
	}

	// Admission: count the request as in-flight before checking the drain
	// flag, so Drain's wait cannot miss it; reject-and-release if draining.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, &s.stats.RejectedDraining, "serve: draining")
		return
	}
	if ok, retryAfter := s.admit.allow(); !ok {
		// Retry-After from the bucket's actual refill clock: the time until
		// one token exists, not a hardcoded constant.
		retryAfterHeader(w, retryAfter)
		s.reject(w, http.StatusTooManyRequests, &s.stats.RejectedRate, "serve: admission rate exceeded")
		return
	}
	if n := s.queued.Add(1); n > int64(s.opts.QueueDepth) {
		s.queued.Add(-1)
		// Retry-After from the queue's estimated drain time: the summed cost
		// estimates of everything admitted ahead of this request.
		retryAfterHeader(w, s.queuedCost.load())
		s.reject(w, http.StatusTooManyRequests, &s.stats.RejectedQueue,
			"serve: queue full (%d jobs)", s.opts.QueueDepth)
		return
	}
	defer s.queued.Add(-1)
	s.stats.Admitted.Add(1)

	// Result memoization: a completed identical request is served straight
	// from the memo (no engine); concurrent identical misses coalesce on
	// the leader's solve — single flight.
	var (
		mkey          memoKey
		ment          *memoEntry
		memoLeader    bool
		memoPublished bool
	)
	if s.memo != nil && !req.NoMemo {
		mkey = memoKey{scenario: req.Scenario.Key(), payload: req.payloadKey()}
		for {
			ment, memoLeader = s.memo.acquire(mkey)
			if memoLeader {
				break
			}
			<-ment.ready
			if ment.err == nil {
				s.stats.MemoHits.Add(1)
				s.renderAndSend(w, start, memoResponse(req, mkey, ment))
				return
			}
			// The leader abandoned (failed or was rejected downstream);
			// retry — this round may make us the leader.
		}
		defer func() {
			if !memoPublished {
				s.memo.abandon(mkey, ment)
			}
		}()
	}

	// Brownout: past the memo (hits are cheap and still served while
	// degraded), an engine-bound request is priced and — in degraded mode —
	// shed if it is among the costly ones the mode exists to keep out.
	estCost := s.estimateCost(req)
	if s.brownout.shedNow(estCost) {
		retryAfterHeader(w, s.queuedCost.load())
		s.reject(w, http.StatusServiceUnavailable, &s.stats.RejectedDegraded,
			"serve: degraded (overload brownout), estimated cost %.3gs over the shed threshold", estCost)
		return
	}
	s.queuedCost.add(estCost)
	s.brownout.observe(s.queuedCost.load())
	defer func() {
		s.queuedCost.add(-estCost)
		s.brownout.observe(s.queuedCost.load())
	}()

	// The request's deadline: its own deadline_ms, else the server default,
	// else unbounded. Measured from handler entry so decode/validation time
	// counts against it.
	var deadline time.Time
	if req.DeadlineMillis > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	} else if s.opts.DefaultDeadline > 0 {
		deadline = start.Add(s.opts.DefaultDeadline)
	}

	var (
		jr             jobResult
		hit            bool
		entryKey       string
		compileSeconds float64
		queueSeconds   float64
	)
	for attempt := 0; ; attempt++ {
		entry, h, release, err := s.cache.acquire(req.Scenario)
		if err != nil {
			s.stats.Failed.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		hit, entryKey = h, entry.key
		if !h {
			compileSeconds = entry.compileSeconds
			s.stats.CompileSecondsTotal.add(compileSeconds)
		}
		// Validate well cells against the compiled mesh, not the estimate —
		// the estimate is exact for the radial family today, but the
		// compiled count is the one the engine will index with.
		for _, well := range req.Wells {
			if well.Cell >= entry.cells {
				release()
				s.reject(w, http.StatusBadRequest, &s.stats.RejectedInvalid,
					"serve: well cell %d outside the compiled %d-cell mesh", well.Cell, entry.cells)
				return
			}
		}
		j := &job{
			req:        req,
			payloadKey: req.payloadKey(),
			enqueued:   s.opts.Now(),
			deadline:   deadline,
			done:       make(chan jobResult, 1),
		}
		entry.pending <- j
		jr = <-j.done
		release()
		queueSeconds = s.opts.Now().Sub(j.enqueued).Seconds()
		s.stats.QueueSecondsTotal.add(queueSeconds)
		// Queued behind an engine panic: the pool retired under this job.
		// The heal already kicked off a recompile — resubmit once to the
		// fresh pool instead of surfacing a collateral error.
		if errors.Is(jr.err, errPoolUnhealthy) && attempt == 0 && !s.draining.Load() {
			continue
		}
		break
	}
	if jr.err != nil {
		s.failSolve(w, jr.err)
		return
	}

	resp := &SolveResponse{
		ScenarioKey:    entryKey,
		Cells:          len(jr.res.Pressure),
		CacheHit:       hit,
		Batched:        jr.shared,
		Engine:         jr.engine,
		BatchSize:      jr.batchSize,
		PressureSHA256: pressureHash(jr.res.Pressure),
	}
	fillSteps(resp, jr.res)
	if req.ReturnPressure {
		resp.Pressure = jr.res.Pressure
	}
	resp.Timings = Timings{
		QueueSeconds:   queueSeconds,
		CompileSeconds: compileSeconds,
		SolveSeconds:   jr.solveSeconds,
	}
	if memoLeader {
		s.memo.publish(mkey, ment, jr.res, jr.solveSeconds)
		memoPublished = true
	}
	s.renderAndSend(w, start, resp)
}

// fillSteps copies a result's per-step reports into the response.
func fillSteps(resp *SolveResponse, res *umesh.TransientResult) {
	for _, st := range res.Steps {
		resp.Steps = append(resp.Steps, StepReport{
			Iterations: st.Iterations,
			Residual:   st.Residual,
			MaxDeltaP:  st.MaxDeltaP,
			MassError:  st.MassError,
		})
		resp.Iterations += st.Iterations
	}
}

// memoResponse renders a memo entry as a completed response: the stored
// steps, hash and solve provenance; no engine, batch or cache involvement.
func memoResponse(req SolveRequest, key memoKey, e *memoEntry) *SolveResponse {
	resp := &SolveResponse{
		ScenarioKey:      key.scenario,
		Cells:            len(e.res.Pressure),
		Engine:           -1,
		MemoHit:          true,
		MemoSolveSeconds: e.solveSeconds,
		PressureSHA256:   e.hash,
	}
	fillSteps(resp, e.res)
	if req.ReturnPressure {
		resp.Pressure = e.res.Pressure
	}
	return resp
}

// renderAndSend marshals the response, measures the render on the injected
// clock, fills the closing timings in, and ships the body.
func (s *Server) renderAndSend(w http.ResponseWriter, start time.Time, resp *SolveResponse) {
	renderStart := s.opts.Now()
	body, err := json.Marshal(resp)
	renderSeconds := s.opts.Now().Sub(renderStart).Seconds()
	s.stats.RenderSecondsTotal.add(renderSeconds)
	if err != nil {
		s.stats.Failed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	resp.Timings.RenderSeconds = renderSeconds
	resp.Timings.TotalSeconds = s.opts.Now().Sub(start).Seconds()
	// Re-marshal with the finished timings: the first marshal measured the
	// render cost, this one (identical layout, two floats filled in) is what
	// ships.
	body, _ = json.Marshal(resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	s.stats.Completed.Add(1)
}

// pressureHash is the bit-identity probe: SHA-256 over the field's raw
// little-endian float64 bits.
func pressureHash(p []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
