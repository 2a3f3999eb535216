// Package service is the simulation-as-a-service layer: an HTTP daemon
// that accepts sweep jobs (POST /v1/runs), executes them on a bounded
// worker pool over the parallel grid runner, and serves results, named
// experiments, and operational metrics. The daemon exists because grid
// sweeps over the paper's configuration space repeat the same cells
// constantly — the content-addressed result cache turns those repeats
// into map probes, applying the IRB's memoization idea one level up.
//
// Concurrency model: a request is first admitted against a queue-depth
// bound (full queue → 429 with Retry-After), then waits for one of the
// run slots (client disconnect while waiting cancels the run). Within a
// slot the grid runner fans the cells out over its own worker pool. A
// draining server (BeginDrain, typically on SIGTERM) rejects new work
// with 503 and fails /readyz while in-flight runs finish — pairing with
// http.Server.Shutdown, which waits for active requests but does not
// cancel their contexts.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sizes the daemon. The zero value selects the documented
// defaults; New normalizes it.
type Config struct {
	// Workers is the number of runs executing concurrently (default 2).
	// Each run additionally fans its cells out over Parallelism workers.
	Workers int
	// QueueDepth bounds the requests admitted at once, running plus
	// waiting (default Workers+8). Beyond it POST /v1/runs answers 429
	// with a Retry-After header instead of queueing unboundedly.
	QueueDepth int
	// MaxCells is the per-request grid budget: a request expanding to
	// more (configs × benchmarks) cells is rejected with 413
	// (default 4096).
	MaxCells int
	// CacheEntries bounds the content-addressed result cache (default
	// 8192 cells, LRU-evicted, about 650 B each). One closed-loop client
	// of a coordinator and one worker misses about 80 cells/s at 5k
	// instructions per cell, so the default holds about 100 s of misses.
	CacheEntries int
	// Parallelism is the grid runner's per-run worker count
	// (default GOMAXPROCS).
	Parallelism int
	// DefaultInsns is the per-cell instruction budget applied when a
	// request leaves insns at 0 (default sim.DefaultInsns).
	DefaultInsns uint64
	// Verify forces oracle verification on every cell regardless of the
	// request.
	Verify bool
	// CellTimeout bounds each cell's wall clock (0 = unbounded); see
	// runner.Options.CellTimeout.
	CellTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Coordinator, when non-nil, turns the daemon into the fabric
	// coordinator: grid cells dispatch to the worker fleet through the
	// runner's Execute seam, and the lease protocol endpoints
	// (POST /v1/lease, /v1/heartbeat, /v1/complete) are mounted.
	Coordinator *fabric.Coordinator
	// FabricWorker, when non-nil, is the pull loop this daemon runs as a
	// fabric worker (its Exec is RunJobs); /metrics renders its lease
	// grant counters.
	FabricWorker *fabric.Worker
	// Journal, when non-nil, is the crash-safe run WAL: accepted runs,
	// completed cells and cache inserts are journaled as they happen, and
	// RecoverJournal resumes from them at boot.
	Journal *fabric.Journal
}

// runRetention bounds the run records kept for GET /v1/runs/{id}; the
// oldest finished runs are dropped beyond it.
const runRetention = 1024

// Server is the daemon state: the result cache, the admission and run
// slots, the metrics aggregate, and the run records.
type Server struct {
	cfg   Config
	cache *resultCache
	met   *metrics

	admit chan struct{} // queue-depth tokens (held request-long)
	slots chan struct{} // run slots (held while simulating)

	// drain ends when BeginDrain is called; held lease calls end with it.
	drain      context.Context
	beginDrain context.CancelFunc

	rngMu sync.Mutex
	rng   *rand.Rand // jitter for Retry-After values

	streamMu sync.Mutex
	streams  map[string]*stream // live run event streams by run ID

	journalErrs atomic.Uint64
	replay      atomic.Pointer[replayInfo]

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string // run IDs, oldest first, for bounded retention
	nextID uint64
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = cfg.Workers + 8
	}
	if cfg.QueueDepth < cfg.Workers {
		cfg.QueueDepth = cfg.Workers
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 8192
	}
	if cfg.DefaultInsns == 0 {
		cfg.DefaultInsns = sim.DefaultInsns
	}
	drain, beginDrain := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries),
		met:        newMetrics(),
		admit:      make(chan struct{}, cfg.QueueDepth),
		slots:      make(chan struct{}, cfg.Workers),
		drain:      drain,
		beginDrain: beginDrain,
		runs:       make(map[string]*Run),
		rng:        rand.New(rand.NewPCG(1, 0x5e21ed)),
		streams:    make(map[string]*stream),
	}
}

// BeginDrain switches the server to draining: new runs and leases are
// refused with 503, /readyz fails, and held lease calls are released,
// while already-admitted work runs to completion. Pair with
// http.Server.Shutdown, which waits for in-flight requests without
// cancelling their contexts.
func (s *Server) BeginDrain() { s.beginDrain() }

// draining reports whether BeginDrain has been called.
func (s *Server) draining() bool { return s.drain.Err() != nil }

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/runs", s.instrument("POST /v1/runs", s.handlePostRuns))
	mux.Handle("GET /v1/runs", s.instrument("GET /v1/runs", s.handleListRuns))
	mux.Handle("GET /v1/runs/{id}", s.instrument("GET /v1/runs/{id}", s.handleGetRun))
	mux.Handle("GET /v1/runs/{id}/events", s.instrument("GET /v1/runs/{id}/events", s.handleRunEvents))
	if s.cfg.Coordinator != nil {
		mux.Handle("POST /v1/lease", s.instrument("POST /v1/lease", s.handleLease))
		mux.Handle("POST /v1/heartbeat", s.instrument("POST /v1/heartbeat", s.handleHeartbeat))
		mux.Handle("POST /v1/complete", s.instrument("POST /v1/complete", s.handleComplete))
	}
	mux.Handle("GET /v1/experiments", s.instrument("GET /v1/experiments", s.handleListExperiments))
	mux.Handle("GET /v1/experiments/{name}", s.instrument("GET /v1/experiments/{name}", s.handleExperiment))
	mux.Handle("GET /v1/configs", s.instrument("GET /v1/configs", s.handleConfigs))
	mux.Handle("GET /v1/modes", s.instrument("GET /v1/modes", s.handleModes))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// runnerRun is the test seam: the integration tests substitute a
// deterministic stand-in for the grid runner to exercise backpressure,
// cancellation and drain without real simulations.
var runnerRun = runner.Run

// handlePostRuns is the job intake: validate, admit, wait for a run
// slot, execute, record, respond.
func (s *Server) handlePostRuns(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		w.Header().Set("Retry-After", s.retryAfter(5*time.Second))
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new runs")
		return
	}
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	jobs, err := s.buildJobs(&req)
	if err != nil {
		var me *unknownModeError
		if errors.As(err, &me) {
			writeJSON(w, http.StatusBadRequest, api.Error{Error: me.Error(), ValidModes: me.valid})
			return
		}
		code := http.StatusBadRequest
		if errors.Is(err, errOverBudget) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err.Error())
		return
	}
	if len(jobs) > s.cfg.MaxCells {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request expands to %d cells, limit %d", len(jobs), s.cfg.MaxCells))
		return
	}

	// Admission: the queue-depth token is non-blocking — a full queue
	// answers 429 immediately so clients back off instead of piling up.
	// The Retry-After is jittered by the shared backoff helper so a burst
	// of rejected clients does not come back in the same second.
	select {
	case s.admit <- struct{}{}:
	default:
		w.Header().Set("Retry-After", s.retryAfter(time.Second))
		writeError(w, http.StatusTooManyRequests, "run queue is full; retry later")
		return
	}
	defer func() { <-s.admit }()

	run := s.newRun(len(jobs))
	s.openStream(run.ID)
	s.journalAppend(fabric.Record{
		Type: fabric.RecRun, RunID: run.ID, Req: &req,
		Cells: len(jobs), Created: run.Created,
	})
	// Wait for a run slot, racing the client: a disconnect while queued
	// cancels the run before it consumes any simulation time.
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		s.finishRun(run.ID, StatusCancelled, nil, 0, "client disconnected while queued")
		s.met.observeRun(StatusCancelled, 0, 0, 0)
		s.journalAppend(fabric.Record{Type: fabric.RecFinish, RunID: run.ID,
			Status: StatusCancelled, Err: "client disconnected while queued"})
		s.dropStream(run.ID)
		return
	}
	defer func() { <-s.slots }()

	status := s.performRun(r.Context(), run.ID, jobs)
	if status == StatusCancelled {
		return // the client is gone; nothing to write
	}
	snap, _ := s.snapshotRun(run.ID)
	writeJSON(w, http.StatusOK, snap)
}

// performRun drives one admitted run to its terminal state: mark
// running, execute the grid (journaling and streaming each cell as it
// lands), record the results, and publish the terminal event. Both the
// HTTP intake and boot-time journal recovery funnel through it.
func (s *Server) performRun(ctx context.Context, runID string, jobs []runner.Job) string {
	s.markRunning(runID)
	start := now()
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i], _ = jobs[i].Fingerprint() // uncacheable cells journal an empty key
	}
	outs, runErr := s.executeGrid(ctx, jobs, runID, keys)

	results := make([]CellResult, len(outs))
	simCells, hitCells := 0, 0
	for i, o := range outs {
		cr := CellResult{
			Bench:    o.Job.Profile.Name,
			Config:   o.Job.Name,
			CacheHit: o.CacheHit,
		}
		if o.Err != nil {
			cr.Error = o.Err.Error()
		} else {
			cr.Result = s.cache.shared(keys[i], o.Result)
			if o.CacheHit {
				hitCells++
			} else {
				simCells++
			}
		}
		results[i] = cr
	}

	status := StatusDone
	errMsg := ""
	switch {
	case ctx.Err() != nil:
		status, errMsg = StatusCancelled, "client disconnected mid-run"
	case runErr != nil:
		status, errMsg = StatusFailed, runErr.Error()
	}
	s.finishRun(runID, status, results, hitCells, errMsg)
	s.met.observeRun(status, simCells, hitCells, now().Sub(start))
	s.journalAppend(fabric.Record{Type: fabric.RecFinish, RunID: runID, Status: status, Err: errMsg})
	s.publishEvent(runID, api.CellEvent{Index: -1, Done: true, Status: status})
	return status
}

// executeGrid hands the grid to the runner with the server's cache
// attached. With a coordinator configured the cells the cache cannot
// serve go to the worker fleet through the runner's Execute seam instead,
// as one submission; the cells the fleet hands back run in-process on
// Parallelism workers like any other. runID/keys attach the journal and
// event stream hooks; a caller with no run record passes "" and nil.
func (s *Server) executeGrid(ctx context.Context, jobs []runner.Job, runID string, keys []string) ([]runner.Outcome, error) {
	opts := runner.Options{
		Parallelism: s.cfg.Parallelism,
		CellTimeout: s.cfg.CellTimeout,
		Cache:       s.runnerCache(),
	}
	if runID != "" {
		opts.Progress = s.cellProgress(runID, keys)
	}
	if s.cfg.Coordinator != nil {
		opts.Execute = s.cfg.Coordinator.Execute
	}
	return runnerRun(ctx, jobs, opts)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotRun(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run ID")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleListRuns returns run summaries (no per-cell results), newest
// last, for discovery and dashboards.
func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]Run, 0, len(s.order))
	for _, id := range s.order {
		if run, ok := s.runs[id]; ok {
			summary := *run
			summary.Results = nil
			list = append(list, summary)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": list})
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": experiments.Names()})
}

func (s *Server) handleConfigs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"configs": ConfigNames()})
}

// handleModes lists the registered redundancy modes — name, description,
// capability summary and knobs — straight from the core mode registry, so
// a newly registered mode is discoverable with no service change.
func (s *Server) handleModes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ModesResponse{Modes: DescribeModes()})
}

// handleExperiment runs a named paper experiment under the same
// admission control as ad-hoc runs, sharing the daemon's result cache so
// an experiment re-requested with the same knobs replays from memory.
// Query parameters: insns, bench (comma-separated), verify, format
// (table, csv or json).
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	named, ok := experiments.ByName(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment; see GET /v1/experiments")
		return
	}
	if s.draining() {
		w.Header().Set("Retry-After", s.retryAfter(5*time.Second))
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new runs")
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "table"
	}
	opts := experiments.Options{
		Context:     r.Context(),
		Insns:       s.cfg.DefaultInsns,
		Verify:      s.cfg.Verify || q.Get("verify") == "true",
		Benchmarks:  cliutil.SplitBenchmarks(q.Get("bench")),
		Parallelism: s.cfg.Parallelism,
		CellTimeout: s.cfg.CellTimeout,
		Cache:       s.cache,
	}
	if v := q.Get("insns"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "insns: "+err.Error())
			return
		}
		opts.Insns = n
	}
	// An empty bench list runs every profile.
	profiles := cmp.Or(len(opts.Benchmarks), len(workload.SPEC2000()))
	if err := checkTraceBudget(profiles, opts.Insns, 0); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	// Validate the output format before burning simulation time on it.
	switch format {
	case "table", "csv", "json":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown format %q (want table, csv or json)", format))
		return
	}

	select {
	case s.admit <- struct{}{}:
	default:
		w.Header().Set("Retry-After", s.retryAfter(time.Second))
		writeError(w, http.StatusTooManyRequests, "run queue is full; retry later")
		return
	}
	defer func() { <-s.admit }()
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	defer func() { <-s.slots }()

	start := now()
	tbl, err := named.Run(opts)
	switch {
	case r.Context().Err() != nil:
		s.met.observeRun(StatusCancelled, 0, 0, now().Sub(start))
		return
	case err != nil:
		s.met.observeRun(StatusFailed, 0, 0, now().Sub(start))
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.observeRun(StatusDone, 0, 0, now().Sub(start))
	out, err := cliutil.Render(tbl, format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	fmt.Fprintln(w, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// len(admit) is the queue-depth gauge: tokens currently held by
	// admitted, unfinished requests.
	s.met.render(w, len(s.admit), s.cache.stats())
	if c := s.cfg.Coordinator; c != nil {
		renderFabricMetrics(w, c.Metrics())
	}
	if fw := s.cfg.FabricWorker; fw != nil {
		grants, cells := fw.Grants()
		renderWorkerMetrics(w, grants, cells)
	}
	if s.cfg.Journal != nil {
		renderJournalMetrics(w, s.replay.Load(), s.journalErrs.Load())
	}
}

// --- run records -----------------------------------------------------

func (s *Server) newRun(cells int) Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("run-%06d", s.nextID)
	run := &Run{ID: id, Status: StatusQueued, Created: now(), Cells: cells}
	s.runs[id] = run
	s.order = append(s.order, id)
	s.evictRunsLocked()
	return *run
}

// evictRunsLocked drops the oldest finished runs beyond the retention
// bound; records of queued or running runs are never dropped.
func (s *Server) evictRunsLocked() {
	for len(s.order) > runRetention {
		dropped := false
		for i, id := range s.order {
			run := s.runs[id]
			if run == nil || run.Finished != nil {
				delete(s.runs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything is still in flight; retention waits
		}
	}
}

func (s *Server) markRunning(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run, ok := s.runs[id]; ok {
		t := now()
		run.Status, run.Started = StatusRunning, &t
	}
}

func (s *Server) finishRun(id, status string, results []CellResult, cacheHits int, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok {
		return
	}
	t := now()
	run.Status, run.Finished = status, &t
	run.Results, run.CacheHits, run.Error = results, cacheHits, errMsg
}

// snapshotRun copies a run record for serialization outside the lock.
// The copy shares the Results backing array, which is never mutated
// after finishRun installs it.
func (s *Server) snapshotRun(id string) (Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok {
		return Run{}, false
	}
	return *run, true
}

// --- HTTP plumbing ---------------------------------------------------

// instrument wraps a handler to count its responses by route and status
// code on /metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.met.incRequest(route, sw.code)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented handlers can
// stream (the SSE endpoint requires an http.Flusher).
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client went away; nothing else to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
