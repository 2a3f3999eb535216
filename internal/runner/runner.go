// Package runner is the parallel sweep engine: it executes a batch of
// independent (benchmark × configuration) simulation jobs across a pool
// of workers. Every cell of an experiment grid is a deterministic,
// self-contained sim.RunContext call (seeded PCG, no shared mutable
// state), so the grid is embarrassingly parallel; the runner adds the
// machinery the serial double loop lacked — context cancellation,
// per-job error capture, deterministic result ordering regardless of
// completion order, live progress reporting, and cost-aware dispatch so
// the widest machine configurations do not all land on one worker at
// the tail of the sweep.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one simulation cell: a workload profile on a named machine
// configuration with per-run options.
type Job struct {
	Name    string // configuration display name (sim.Result.Config)
	Config  core.Config
	Profile workload.Profile
	Opts    sim.Options
}

// Cost estimates the relative wall-clock weight of the job for
// longest-processing-time dispatch. The model is deliberately coarse: it
// only has to rank a doubled-width verified DIE cell above a narrow SIE
// cell so stragglers start early, not predict runtimes.
func (j Job) Cost() float64 {
	insns := j.Opts.Insns
	if insns == 0 {
		insns = sim.DefaultInsns
	}
	w := float64(insns) + float64(j.Opts.FastForward)/4
	// Mode weight from capabilities, not identity: each extra copy stream
	// costs most of a full pipeline's work, the IRB adds lookup/update
	// traffic, and epoch replay adds the checker passes.
	caps := j.Config.Mode.Caps()
	m := 1 + 0.9*float64(j.Config.Streams()-1)
	if caps.UsesIRB {
		m += 0.2
	}
	if caps.Compare == core.CompareEpoch {
		m += 0.1
	}
	w *= m
	// Wider machines and windows do more per-cycle bookkeeping.
	w *= 1 + float64(j.Config.IssueWidth)/32
	w *= 1 + float64(j.Config.RUUSize)/512
	if j.Opts.Verify {
		w *= 1.15 // a lone cell's oracle re-executes every committed instruction
	}
	return w
}

// traceKey identifies the exact functional execution a job performs: the
// workload (profile plus the options that shape program generation) and
// the measurement window. Jobs with equal keys retire identical
// instruction streams and can share one captured trace.
type traceKey struct {
	profile     workload.Profile
	insns       uint64
	fastForward uint64
	seed        uint64
	program     *program.Program
}

// traceKey returns the key of the functional execution j performs.
func (j Job) traceKey() traceKey {
	insns := j.Opts.Insns
	if insns == 0 {
		insns = sim.DefaultInsns
	}
	return traceKey{j.Profile, insns, j.Opts.FastForward, j.Opts.Seed, j.Opts.Program}
}

// captured is the outcome of one workload's trace capture.
type captured struct {
	trace *fsim.Trace
	err   error
}

// captureTraces captures one trace per distinct workload among the jobs
// pick selects, running up to workers captures at once, and returns each
// selected job's capture by job index (the zero value for the others). A
// capture not yet started when ctx ends is skipped and its jobs get the
// zero value. pick is called once per job, before any capture starts.
func captureTraces(ctx context.Context, jobs []Job, pick func(int) bool, workers int) []captured {
	src := make([]int, len(jobs)) // the job whose capture job i takes, or -1
	first := make(map[traceKey]int)
	var order []int // each workload's first selected job, in job order
	for i := range jobs {
		src[i] = -1
		if !pick(i) {
			continue
		}
		k := jobs[i].traceKey()
		f, ok := first[k]
		if !ok {
			f = i
			first[k] = i
			order = append(order, i)
		}
		src[i] = f
	}
	caps := make([]captured, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := next.Add(1) - 1
				if n >= int64(len(order)) {
					return
				}
				f := order[n]
				tr, err := sim.CaptureTrace(jobs[f].Profile, jobs[f].Opts)
				caps[f] = captured{tr, err}
			}
		}()
	}
	wg.Wait()
	for i, f := range src {
		if f >= 0 {
			caps[i] = caps[f]
		}
	}
	return caps
}

// AttachTraces captures one functional-execution trace per distinct
// workload among jobs, on GOMAXPROCS goroutines, and installs it as
// Options.Trace on every cell that runs that workload. A grid of B
// benchmarks × C configurations then generates and interprets each
// program once instead of C times; the traces are immutable and shared
// read-only across workers. Jobs that already carry a trace are left
// untouched, so callers can pre-seed specific cells. A failed capture
// does not stop the others: every workload that captured gets its trace,
// and the error returned is that of the first failed cell in job order.
// Attaching is idempotent and safe to retry.
// Run itself traces only workloads that repeat among its cache misses.
func AttachTraces(jobs []Job) error {
	untraced := func(i int) bool { return jobs[i].Opts.Trace == nil }
	caps := captureTraces(context.TODO(), jobs, untraced, runtime.GOMAXPROCS(0))
	var err error
	for i := range jobs {
		switch c := caps[i]; {
		case c.trace != nil:
			jobs[i].Opts.Trace = c.trace
		case c.err != nil && err == nil:
			err = fmt.Errorf("runner: capturing trace for %s: %w", jobs[i].Profile.Name, c.err)
		}
	}
	return err
}

// shareTraces captures one trace for each workload that at least two of
// the untraced cells to run execute, on up to workers goroutines, and
// installs it on those cells. A lone cell would be its trace's only
// reader, so it interprets directly. The traces go on a copy of jobs,
// never the caller's slice. A workload whose capture fails stays
// untraced; its cells then fail on their own.
func shareTraces(ctx context.Context, jobs []Job, toRun func(int) bool, workers int) []Job {
	untraced := func(i int) bool { return toRun(i) && jobs[i].Opts.Trace == nil }
	runs := make(map[traceKey]int)
	for i := range jobs {
		if untraced(i) {
			runs[jobs[i].traceKey()]++
		}
	}
	repeated := func(i int) bool { return untraced(i) && runs[jobs[i].traceKey()] >= 2 }
	var shared []Job
	for i, c := range captureTraces(ctx, jobs, repeated, workers) {
		if c.trace == nil {
			continue
		}
		if shared == nil {
			shared = slices.Clone(jobs)
		}
		shared[i].Opts.Trace = c.trace
	}
	if shared == nil {
		return jobs
	}
	return shared
}

// Outcome is the terminal state of one job: its Result on success, or
// the error that failed the cell. A cancelled sweep leaves the jobs that
// never ran with Err set to the context's error.
type Outcome struct {
	Job    Job
	Result sim.Result
	Err    error
	// CacheHit reports that the Result was served from Options.Cache
	// instead of being simulated.
	CacheHit bool
}

// Cache is the result-reuse hook consulted by Run when Options.Cache is
// set: a content-addressed store from Job.Fingerprint keys to results.
// Get and Put may be called from multiple goroutines. The runner only
// stores results of successful cells, and only for cacheable jobs.
type Cache interface {
	Get(key string) (sim.Result, bool)
	Put(key string, res sim.Result)
}

// detached returns a copy of r that shares no mutable state with it, so a
// cache entry and every outcome served from it own their IRB and TRB
// statistics.
func detached(r sim.Result) sim.Result {
	if r.IRB != nil {
		st := *r.IRB
		r.IRB = &st
	}
	if r.TRB != nil {
		st := *r.TRB
		r.TRB = &st
	}
	return r
}

// Progress is a snapshot delivered after each completed cell.
type Progress struct {
	Done, Total int
	// Bench and Config identify the cell that just finished.
	Bench, Config string
	Elapsed       time.Duration
	// ETA linearly extrapolates the remaining wall-clock time from the
	// average per-cell time so far (zero once the sweep is done).
	ETA time.Duration
	// Index is the finished cell's position in the jobs slice, so
	// per-cell consumers (the serving layer's journal and event streams)
	// can attribute the outcome without re-deriving order.
	Index int
	// CacheHit reports the cell was served from Options.Cache.
	CacheHit bool
	// Result is a copy of the cell's result (nil when the cell failed).
	Result *sim.Result
	// Err is the cell's terminal error (nil on success).
	Err error
}

// Options configure a batch run.
type Options struct {
	// Parallelism is the worker count, and so the bound on cells that
	// simulate in-process at once; <= 0 selects runtime.GOMAXPROCS(0).
	// Above 1 the workers take the heaviest queued task first. 1 runs the
	// tasks serially in queue order: in input order when nothing batches
	// (reproducing the pre-runner serial sweep bit-for-bit); otherwise
	// the batch groups, then the other cells in input order, then each
	// group's diverged lanes, group by group in the order the groups
	// ran. Either way every cell's Result is bit-identical to its serial
	// scalar run's.
	Parallelism int
	// Progress, when non-nil, is invoked after every completed cell.
	// Calls are serialized by the runner, so the callback needs no
	// locking of its own.
	Progress func(Progress)
	// CellTimeout bounds each cell's wall-clock time (0 = unbounded). A
	// cell that exceeds it is stopped and retried once — a hung cell on a
	// loaded machine may just have been starved — and a second timeout
	// fails the cell with a *CellTimeoutError while the rest of the sweep
	// proceeds.
	CellTimeout time.Duration
	// Cache, when non-nil, serves cells whose fingerprint it already
	// holds without simulating them (Outcome.CacheHit marks those) and
	// stores every successfully simulated cacheable cell. Simulation is
	// deterministic in a job's fingerprinted inputs, so a hit is
	// bit-identical to a fresh run.
	Cache Cache
	// NoBatch disables the batch planner: every cell runs scalar, as
	// before the batched core existed. Batching is on by default because
	// it changes nothing observable — cells that are identical up to
	// their fault injector (a campaign's seeds and sites over one
	// config×workload cell) share one lockstep leader run, and each
	// lane's result, error, progress report and cache entry is
	// bit-identical to its scalar run's.
	NoBatch bool
	// Execute, when non-nil, is the pluggable dispatch seam, and it takes
	// a whole run: Run calls it once, on a goroutine of its own, with
	// every cell the cache cannot serve (heaviest first when Parallelism
	// is above 1), and Execute settles jobs[k] by calling settle(k, res,
	// err) as that cell lands. It settles each cell at most once, from any
	// goroutine, never after it returns, and it returns promptly once ctx
	// ends. Settling with ErrRunLocal hands the cell back: it joins Run's
	// queue at once and runs in-process under CellTimeout, with its retry,
	// injector reset and panic capture. A cell Execute returns without
	// settling is handed back the same way; if Execute panics, each such
	// cell fails with a *CellPanicError instead. The fabric coordinator
	// plugs in here to ship a run's cells to remote workers in one
	// submission while reusing everything above the seam — cache-before-
	// dispatch, per-cell error capture, progress reporting and
	// deterministic outcome order. Batching and trace sharing are
	// bypassed in this mode, and a shipped cell's deadline is the
	// dispatcher's concern.
	Execute func(ctx context.Context, jobs []Job, settle func(k int, res sim.Result, err error))
}

// CellPanicError reports that one sweep cell's simulation panicked. The
// runner recovers the panic in the worker and records it as the cell's
// error, so one poisoned cell no longer takes down the whole batch.
type CellPanicError struct {
	Bench, Config string
	Value         any    // the recovered panic value
	Stack         []byte // stack of the panicking goroutine
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("runner: %s on %s panicked: %v\n%s", e.Bench, e.Config, e.Value, e.Stack)
}

// cellPanic records a panic recovered under cell j, with the stack of
// the panicking goroutine.
func cellPanic(j Job, v any) error {
	return &CellPanicError{Bench: j.Profile.Name, Config: j.Name, Value: v, Stack: debug.Stack()}
}

// CellTimeoutError reports that one cell exceeded Options.CellTimeout on
// every attempt. It deliberately does not unwrap to
// context.DeadlineExceeded: the per-cell deadline is a failure of that
// cell, not a sweep-level cancellation, and must survive Run's error
// filtering.
type CellTimeoutError struct {
	Bench, Config string
	Timeout       time.Duration
	Attempts      int
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("runner: %s on %s timed out after %v (%d attempts)",
		e.Bench, e.Config, e.Timeout, e.Attempts)
}

// now is the sweep's single sanctioned wall-clock read, feeding only the
// Progress callback's Elapsed/ETA fields — never a simulation result. It
// is a variable for the same reason simRun is: harness tests substitute a
// fake clock.
//
//determinism:exempt sole injected clock seam; feeds progress reporting only, tests substitute it
var now = time.Now

// simRun is sim.RunContext, indirected so the harness tests can substitute
// panicking or hanging simulations without involving a real core.
var simRun = sim.RunContext

// runCellOnce executes one cell, converting a panic anywhere under the
// simulation into a *CellPanicError.
func runCellOnce(ctx context.Context, j Job) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = cellPanic(j, v)
		}
	}()
	return simRun(ctx, j.Name, j.Config, j.Profile, j.Opts)
}

// resetInjector restores a batchable injector to its freshly-constructed
// state, so a cell re-dispatched after a timeout or a batch divergence
// replays the exact campaign a fresh run would instead of resuming a
// partially consumed PRNG. Injectors without the capability are left
// alone (their single-attempt semantics are unchanged).
func resetInjector(j Job) {
	if bi, ok := j.Opts.Injector.(core.BatchableInjector); ok {
		bi.Reset()
	}
}

// runCell executes one cell under the per-cell timeout with one retry.
func runCell(ctx context.Context, j Job, timeout time.Duration) (sim.Result, error) {
	if timeout <= 0 {
		resetInjector(j)
		return runCellOnce(ctx, j)
	}
	const attempts = 2
	for a := 0; a < attempts; a++ {
		resetInjector(j)
		cellCtx, cancel := context.WithTimeout(ctx, timeout)
		res, err := runCellOnce(cellCtx, j)
		cancel()
		if !isCellTimeout(ctx, err) {
			return res, err
		}
	}
	return sim.Result{}, &CellTimeoutError{
		Bench:    j.Profile.Name,
		Config:   j.Name,
		Timeout:  timeout,
		Attempts: attempts,
	}
}

// isCellTimeout reports whether err came from the per-cell deadline rather
// than a sweep-level cancellation: the cell's context expired while the
// parent is still live.
func isCellTimeout(parent context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil
}

// ErrRunLocal, passed to Options.Execute's settle callback, hands a cell
// back for in-process execution; a cell Execute leaves unsettled is handed
// back the same way.
var ErrRunLocal = errors.New("runner: cell handed back for in-process execution")

// errNotRun marks outcomes whose job was never dispatched (the sweep was
// cancelled first); Run rewrites it to the context's error.
var errNotRun = errors.New("runner: job not run")

// Run executes every job and returns one Outcome per job, in job order
// regardless of completion order. A failed cell never aborts the batch:
// its error is recorded in its Outcome and the returned error joins all
// per-cell failures (nil when every cell succeeded). When ctx is
// cancelled the in-flight simulations stop within one core tick, the remaining
// jobs are skipped, and Run returns the completed prefix of outcomes
// alongside the context's error.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]Outcome, len(jobs))
	for i := range jobs {
		outs[i] = Outcome{Job: jobs[i], Err: errNotRun}
	}
	if len(jobs) == 0 {
		return outs, ctx.Err()
	}

	// Resolve cache hits before dispatching anything: a hit costs a hash
	// and a map probe, so serving it from a worker slot would only add
	// queueing latency. Uncacheable jobs (fingerprint error) run normally
	// and are never stored.
	var keys []string
	if opts.Cache != nil {
		keys = make([]string, len(jobs))
		for i := range jobs {
			k, err := jobs[i].Fingerprint()
			if err != nil {
				continue
			}
			keys[i] = k
			if res, ok := opts.Cache.Get(k); ok {
				res = detached(res)       // hits must not share mutable state
				res.Config = jobs[i].Name // display name is not part of the key
				outs[i] = Outcome{Job: jobs[i], Result: res, CacheHit: true}
			}
		}
	}
	toRun := func(i int) bool { return !outs[i].CacheHit }
	misses := 0
	for i := range jobs {
		if toRun(i) {
			misses++
		}
	}
	// No more cells than the run has can ever be queued at once: a batch
	// group stands in for at least two of them.
	workers = min(workers, misses)

	// Trace sharing is decided after the cache lookup, where it is known
	// which workloads repeat among the cells that will run; jobs may now
	// be Run's own copy (outs hold the caller's). The batch planner groups
	// cells that are identical up to their fault injector; each group runs
	// as one lockstep leader, and lanes whose injector fires come back as
	// scalar cells. Everything else — singleton cells, non-batchable
	// injectors — is a scalar task. Shipped cells get neither, and start
	// outside the queue: the Execute seam hands back what it cannot take.
	scalar := func(i int) task { return newTask(jobs, []int{i}, false) }
	var tasks []task
	if opts.Execute == nil {
		jobs = shareTraces(ctx, jobs, toRun, workers)
		batched := make([]bool, len(jobs))
		if !opts.NoBatch {
			for _, g := range planBatches(jobs, toRun) {
				tasks = append(tasks, newTask(jobs, g, true))
				for _, i := range g {
					batched[i] = true
				}
			}
		}
		for i := range jobs {
			if toRun(i) && !batched[i] {
				tasks = append(tasks, scalar(i))
			}
		}
	}
	// One worker keeps the queue order; more take the heaviest task first
	// (LPT), so the widest configs and the biggest batches never start
	// last and stretch the tail.
	q := newQueue(tasks, workers > 1)
	stop := context.AfterFunc(ctx, q.stop)
	defer stop()

	var (
		start = now()
		mu    sync.Mutex
		done  int
	)
	report := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress == nil {
			return
		}
		p := Progress{
			Done:     done,
			Total:    len(jobs),
			Bench:    jobs[i].Profile.Name,
			Config:   jobs[i].Name,
			Elapsed:  now().Sub(start),
			Index:    i,
			CacheHit: outs[i].CacheHit,
			Err:      outs[i].Err,
		}
		if outs[i].Err == nil {
			res := outs[i].Result // copy; the callback must not reach into outs
			p.Result = &res
		}
		if left := len(jobs) - done; left > 0 {
			p.ETA = p.Elapsed / time.Duration(done) * time.Duration(left)
		}
		opts.Progress(p)
	}

	// finish commits one cell's terminal state and stores a successful
	// result in the cache. It is called from worker goroutines and from
	// the Execute seam, each cell exactly once.
	finish := func(i int, r sim.Result, err error) {
		outs[i].Result, outs[i].Err = r, err
		if err == nil && keys != nil && keys[i] != "" {
			opts.Cache.Put(keys[i], detached(r))
		}
		report(i)
	}
	exec := func(t task) {
		if !t.batch {
			i := t.lanes[0]
			r, err := runCell(ctx, jobs[i], opts.CellTimeout)
			finish(i, r, err)
			return
		}
		defer q.produced()
		bouts, err := runBatchGroup(ctx, jobs, t.lanes, opts.CellTimeout)
		if err != nil {
			// The leader could not complete — a timeout, a cancel, a
			// config error, a panic. Every lane falls back to a scalar
			// cell, which reproduces real errors with per-cell identity
			// and per-cell timeout/retry semantics.
			rerun := make([]task, len(t.lanes))
			for k, i := range t.lanes {
				rerun[k] = scalar(i)
			}
			q.push(rerun...)
			return
		}
		// Diverged lanes re-run as scalar cells; runCell resets each
		// lane's injector first, so the re-run replays the lane's
		// campaign from scratch — bit-identical to a sweep that never
		// batched it.
		var rerun []task
		for k, i := range t.lanes {
			if bouts[k].Diverged {
				rerun = append(rerun, scalar(i))
				continue
			}
			finish(i, bouts[k].Result, nil)
		}
		q.push(rerun...)
	}

	// Cache hits count as completed cells for progress purposes; they are
	// reported up front so Done still reaches Total.
	for i := range outs {
		if outs[i].CacheHit {
			report(i)
		}
	}
	var wg sync.WaitGroup
	if opts.Execute != nil && misses > 0 {
		var shipped []int
		for i := range jobs {
			if toRun(i) {
				shipped = append(shipped, i)
			}
		}
		if workers > 1 {
			sort.SliceStable(shipped, func(a, b int) bool { return jobs[shipped[a]].Cost() > jobs[shipped[b]].Cost() })
		}
		q.produce()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer q.produced()
			ship(ctx, jobs, shipped, opts.Execute, finish, func(i int) { q.push(scalar(i)) })
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				t, ok := q.pop()
				if !ok {
					return
				}
				exec(t)
			}
		}()
	}
	wg.Wait()

	var errs []error
	if cerr := ctx.Err(); cerr != nil {
		errs = append(errs, cerr)
	}
	for i := range outs {
		if errors.Is(outs[i].Err, errNotRun) {
			outs[i].Err = ctx.Err()
			continue
		}
		// Cells that stopped because the sweep was cancelled are not
		// failures of their own; the context error above covers them.
		if err := outs[i].Err; err != nil && !errors.Is(err, context.Canceled) &&
			!errors.Is(err, context.DeadlineExceeded) {
			errs = append(errs, fmt.Errorf("%s on %s: %w", jobs[i].Profile.Name, jobs[i].Name, err))
		}
	}
	return outs, errors.Join(errs...)
}

// ship hands the cells jobs[idx[k]] to the Execute seam in one call and
// routes each settlement: a result or an error finishes the cell, and
// ErrRunLocal hands it back. Settling is first-wins per cell, so a second
// settlement of one cell is ignored. Cells left unsettled when exec
// returns are handed back; when exec panics they fail with a
// *CellPanicError carrying the panicking stack.
func ship(ctx context.Context, jobs []Job, idx []int, exec func(context.Context, []Job, func(int, sim.Result, error)),
	finish func(int, sim.Result, error), handBack func(int)) {
	sub := make([]Job, len(idx))
	for k, i := range idx {
		sub[k] = jobs[i]
	}
	var (
		mu      sync.Mutex
		settled = make([]bool, len(idx))
	)
	claim := func(k int) bool {
		mu.Lock()
		defer mu.Unlock()
		first := !settled[k]
		settled[k] = true
		return first
	}
	settle := func(k int, r sim.Result, err error) {
		if !claim(k) {
			return
		}
		if errors.Is(err, ErrRunLocal) {
			handBack(idx[k])
			return
		}
		finish(idx[k], r, err)
	}
	var (
		panicked bool
		value    any
		stack    []byte
	)
	func() {
		defer func() {
			if v := recover(); v != nil {
				panicked, value, stack = true, v, debug.Stack()
			}
		}()
		exec(ctx, sub, settle)
	}()
	for k, i := range idx {
		switch {
		case !claim(k):
		case panicked:
			finish(i, sim.Result{}, &CellPanicError{Bench: jobs[i].Profile.Name, Config: jobs[i].Name, Value: value, Stack: stack})
		default:
			handBack(i)
		}
	}
}
