package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// now is the fabric's single sanctioned wall-clock read: heartbeat ages
// and backoff gates flow through it, so tests freeze time and drive the
// lease state machine deterministically.
//
//determinism:exempt sole injected clock seam; heartbeat ages and backoff gates only, tests substitute it
var now = time.Now

// The lease protocol's fixed budgets. Every timer is derived from the
// lease TTL instead: workers heartbeat, the coordinator sweeps and a
// held lease call waits once per quarter of it.
const (
	leaseBatch  = 8 // most cells one lease call grants
	deadBeats   = 3 // missed heartbeats after which a worker is dead
	maxAttempts = 5 // lost leases a cell is re-queued after; it runs in-process after one more
)

// RemoteCellError is the structured error of a cell a worker completed
// unsuccessfully: the simulation's own failure (a divergence, an
// escalated persistent fault), reported by the worker that ran it.
// Transport failures never take this shape — a worker that cannot report
// surfaces as a lost lease and a retry instead.
type RemoteCellError struct {
	Worker string
	Msg    string
}

func (e *RemoteCellError) Error() string {
	return fmt.Sprintf("fabric: worker %s: %s", e.Worker, e.Msg)
}

// outcome settles one cell of an Execute submission; err is
// runner.ErrRunLocal when the cell goes back to in-process execution
// (the fleet died or the retry budget ran out).
type outcome struct {
	k   int // the cell's index in its submission
	res sim.Result
	err error
}

type cell struct {
	id        uint64
	k         int // index in its submission
	job       runner.Job
	wire      api.Cell
	attempts  int       // leases lost
	notBefore time.Time // backoff gate of a re-queued cell
	// holder is the worker holding the cell and leaseID the lease it was
	// granted under; both are empty while the cell is pending.
	holder, leaseID string
	// done is the submission's settlement channel, buffered for all of
	// its cells; each cell is settled on it exactly once.
	done chan<- outcome
}

type workerState struct {
	lastSeen time.Time
	dead     bool
}

// Metrics is a consistent snapshot of the fabric counters, rendered by
// the service layer on /metrics.
type Metrics struct {
	WorkersLive, WorkersDead   int
	CellsPending, LeasesActive int // LeasesActive counts held cells

	LeaseExpiries        uint64 // leases lost: the holder died or asked for a new grant
	CellsRetried         uint64 // cells re-queued after a lost lease
	CellsCompleted       uint64 // cells settled by worker completions
	CellsLocal           uint64 // cells handed back for in-process execution (degraded mode)
	DeadWorkers          uint64 // dead-worker transitions
	DuplicateCompletions uint64 // late completions for already-settled cells
	RetryMismatches      uint64 // duplicates that were NOT bit-identical
	LateCompletions      uint64 // completions accepted after their lease was lost
	IgnoredCompletions   uint64 // completions for cells no longer tracked
}

// Coordinator shards grid cells across pull-based workers and survives
// their crashes. A granted cell is held by its worker for as long as the
// worker is live: a worker that misses its heartbeats, or that asks for a
// new grant, loses the cells it holds, which re-queue with capped
// jittered backoff, and a fleet with no live workers degrades to
// in-process execution. It plugs into the grid runner as its Execute
// seam, so the planner, result cache, progress reporting and error
// capture above it are exactly the standalone daemon's.
type Coordinator struct {
	// beat is a quarter of the lease TTL: the heartbeat cadence told to
	// workers, the sweep cadence and the longest hold of a lease call.
	beat time.Duration

	mu    sync.Mutex
	rng   *rand.Rand       // backoff jitter
	cells map[uint64]*cell // unsettled cells
	// settled keeps, per settled cell, only the SHA-256 of its canonical
	// completion: a late duplicate is asserted bit-identical against it.
	settled  map[uint64][sha256.Size]byte
	pending  []uint64 // cell IDs, FIFO; settled/held entries are skipped lazily
	workers  map[string]*workerState
	live     int // workers not marked dead
	nextCell uint64
	nextLse  uint64
	met      Metrics
	// wake is closed and replaced whenever a submission enqueues cells,
	// releasing every lease call LeaseWait holds.
	wake chan struct{}
}

// NewCoordinator builds a Coordinator whose timers derive from leaseTTL
// (10s when not positive): workers heartbeat and the coordinator sweeps
// every quarter of it, and a worker silent for three quarters of it is
// dead.
func NewCoordinator(leaseTTL time.Duration) *Coordinator {
	if leaseTTL <= 0 {
		leaseTTL = 10 * time.Second
	}
	return &Coordinator{
		beat:    leaseTTL / 4,
		rng:     rand.New(rand.NewPCG(1, 0xfab51c)),
		cells:   make(map[uint64]*cell),
		settled: make(map[uint64][sha256.Size]byte),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
	}
}

// Start launches the background sweeper; it stops when ctx ends.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.beat)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Metrics returns a snapshot of the fabric counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.met
	m.WorkersLive = c.live
	m.WorkersDead = len(c.workers) - c.live
	for _, id := range c.pending {
		if cl, ok := c.cells[id]; ok && cl.holder == "" {
			m.CellsPending++
		}
	}
	m.LeasesActive = len(c.cells) - m.CellsPending
	return m
}

// Execute is the runner's dispatch seam: it ships a run's cells to the
// worker fleet as one submission and settles each cell as it lands —
// surviving lost leases, retries and worker deaths along the way. The
// whole submission is enqueued under one lock with one wake, so a held
// lease call sees every cell of the run and grants the worker as many of
// them as it asks for. A cell the fleet cannot take (no live worker, a job
// that cannot cross the wire, or a spent retry budget) is counted as
// local and settled with runner.ErrRunLocal, so the runner runs it
// in-process under its own per-cell deadline. When ctx ends, the cells
// still out are abandoned and settled with ctx's error. Safe for
// concurrent use by concurrent runs.
func (c *Coordinator) Execute(ctx context.Context, jobs []runner.Job, settle func(int, sim.Result, error)) {
	done := make(chan outcome, len(jobs))
	cells := c.enqueue(jobs, done) // nil once settled
	out := 0
	for k, cl := range cells {
		if cl == nil {
			settle(k, sim.Result{}, runner.ErrRunLocal)
			continue
		}
		out++
	}
	for ; out > 0; out-- {
		select {
		case o := <-done:
			cells[o.k] = nil
			settle(o.k, o.res, o.err)
		case <-ctx.Done():
			c.abandon(cells)
			for k, cl := range cells {
				if cl != nil {
					settle(k, sim.Result{}, ctx.Err())
				}
			}
			return
		}
	}
}

// enqueue registers a submission's cells for remote execution under one
// lock and releases the held lease calls once. A cell that must run
// in-process (no live workers, or the job cannot cross the wire) is
// counted as local and left nil in the returned slice.
func (c *Coordinator) enqueue(jobs []runner.Job, done chan<- outcome) []*cell {
	wires := make([]api.Cell, len(jobs))
	shippable := make([]bool, len(jobs))
	for k, j := range jobs {
		wires[k], shippable[k] = cellFromJob(j)
	}
	cells := make([]*cell, len(jobs))
	c.mu.Lock()
	defer c.mu.Unlock()
	enqueued := false
	for k, j := range jobs {
		if !shippable[k] || c.live == 0 {
			c.met.CellsLocal++
			continue
		}
		c.nextCell++
		cl := &cell{id: c.nextCell, k: k, job: j, wire: wires[k], done: done}
		cl.wire.ID = cl.id
		c.cells[cl.id] = cl
		c.pending = append(c.pending, cl.id)
		cells[k] = cl
		enqueued = true
	}
	if enqueued {
		close(c.wake)
		c.wake = make(chan struct{})
	}
	return cells
}

// abandon drops the unsettled cells of a submission whose run was
// cancelled; a late completion for one is counted as ignored.
func (c *Coordinator) abandon(cells []*cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range cells {
		if cl != nil && c.cells[cl.id] == cl {
			delete(c.cells, cl.id)
		}
	}
}

// Lease grants the calling worker the oldest eligible pending cells, in
// queue order, registering (or reviving) it on the way. A worker runs one
// grant at a time, so the cells it still holds are lost first: a grant
// whose reply never reached it, or the grant of a predecessor that died
// under the same ID. Any live worker may take any cell: the runner
// answers a repeated cell from the coordinator's own result cache before
// it is enqueued, so no worker's cache is worth steering a cell toward. A
// lost cell rejoins the back of the queue.
func (c *Coordinator) Lease(req api.LeaseRequest) api.LeaseResponse {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()

	w, ok := c.workers[req.Worker]
	if !ok {
		w = &workerState{dead: true} // revived just below
		c.workers[req.Worker] = w
	}
	if w.dead {
		w.dead = false
		c.live++
	}
	w.lastSeen = t
	c.loseHeld(t, func(holder string) bool { return holder == req.Worker })

	max := req.Max
	if max <= 0 || max > leaseBatch {
		max = leaseBatch
	}

	// Grant the first max cells past their backoff gate and keep the
	// rest in order, compacting the queue on the way (settled and held
	// entries drop out here).
	var grant, keep []uint64
	for _, id := range c.pending {
		cl, okc := c.cells[id]
		if !okc || cl.holder != "" {
			continue
		}
		if len(grant) < max && !cl.notBefore.After(t) {
			grant = append(grant, id)
		} else {
			keep = append(keep, id)
		}
	}
	c.pending = keep

	resp := api.LeaseResponse{HeartbeatMillis: c.beat.Milliseconds()}
	for _, id := range grant {
		cl := c.cells[id]
		c.nextLse++
		cl.holder, cl.leaseID = req.Worker, fmt.Sprintf("lease-%08d", c.nextLse)
		resp.Leases = append(resp.Leases, api.Lease{ID: cl.leaseID, Cell: cl.wire})
	}
	return resp
}

// LeaseWait is Lease for an idle worker's call: when nothing is
// grantable it holds the call until a cell is enqueued, the hold (a
// quarter of the lease TTL) elapses or ctx ends, so a fresh cell reaches
// a worker at once instead of at its next poll, and the worker asks
// again as soon as a reply comes back empty. When the hold elapses Lease
// runs once more, refreshing the worker's liveness, so a worker parked
// here is never marked dead. A call that ctx releases returns without a
// grant.
func (c *Coordinator) LeaseWait(ctx context.Context, req api.LeaseRequest) api.LeaseResponse {
	hold := time.NewTimer(c.beat)
	defer hold.Stop()
	for elapsed := false; ; {
		c.mu.Lock()
		wake := c.wake // taken before Lease, so no enqueue after it is missed
		c.mu.Unlock()
		resp := c.Lease(req)
		if len(resp.Leases) > 0 || elapsed {
			return resp
		}
		select {
		case <-wake:
		case <-hold.C:
			elapsed = true
		case <-ctx.Done():
			return resp
		}
	}
}

// Heartbeat refreshes the worker's liveness, which keeps the cells it
// holds. Known=false tells a worker the coordinator no longer tracks it
// (a restart or a dead-worker sweep): its cells are gone, and whatever it
// still completes will be deduplicated.
func (c *Coordinator) Heartbeat(req api.HeartbeatRequest) api.HeartbeatResponse {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.Worker]
	if !ok || w.dead {
		return api.HeartbeatResponse{Known: false}
	}
	w.lastSeen = t
	return api.HeartbeatResponse{Known: true}
}

// Complete settles a batch of finished cells. A completion whose lease
// was lost is still accepted if the cell has not been settled elsewhere
// (a retry avoided). A settled cell leaves the coordinator, keeping only
// the digest of its canonical completion: a later duplicate is compared
// against it and discarded — a retried cell that differed from its first
// try would be a determinism bug, and it is counted, never silently
// dropped.
func (c *Coordinator) Complete(req api.CompleteRequest) api.CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp api.CompleteResponse
	for _, comp := range req.Cells {
		cl, ok := c.cells[comp.CellID]
		if !ok {
			if sum, ok := c.settled[comp.CellID]; ok {
				c.met.DuplicateCompletions++
				if sum != completionDigest(comp) {
					c.met.RetryMismatches++
				}
				resp.Duplicates++
			} else {
				c.met.IgnoredCompletions++
			}
			continue
		}
		if cl.leaseID != comp.LeaseID {
			// The cell was lost from this lease and is queued again or
			// held under a newer one; this late completion wins the race
			// and the newer holder's copy will arrive as the duplicate.
			c.met.LateCompletions++
		}
		delete(c.cells, cl.id)
		c.settled[cl.id] = completionDigest(comp)
		out := outcome{k: cl.k}
		if comp.Error != "" {
			out.err = &RemoteCellError{Worker: req.Worker, Msg: comp.Error}
		} else if comp.Result != nil {
			out.res = *comp.Result
			out.res.Config = cl.job.Name // display name, as the cache does
		}
		cl.done <- out
		c.met.CellsCompleted++
		resp.Accepted++
	}
	return resp
}

// completionDigest hashes a completion's canonical serialization, for the
// bit-identity assertion between a first-try and a retried completion.
func completionDigest(comp api.CellCompletion) [sha256.Size]byte {
	b, err := json.Marshal(struct {
		Result *sim.Result `json:"result,omitempty"`
		Error  string      `json:"error,omitempty"`
	}{comp.Result, comp.Error})
	if err != nil {
		b = nil // unencodable payloads all digest as empty, and so compare equal
	}
	return sha256.Sum256(b)
}

// Tick runs one sweep: workers silent for deadBeats heartbeats are marked
// dead and lose the cells they hold, and when no worker is left live the
// queued cells are handed back to their waiting Execute for in-process
// execution too, or it would wait on them until the run's context ends.
// Start drives it on a timer; tests call it directly under a frozen
// clock.
func (c *Coordinator) Tick() {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()

	var ws []*workerState
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	for _, w := range ws {
		if !w.dead && t.Sub(w.lastSeen) > deadBeats*c.beat {
			w.dead = true
			c.live--
			c.met.DeadWorkers++
		}
	}
	c.loseHeld(t, func(holder string) bool { return c.workers[holder].dead })
	if c.live > 0 {
		return
	}
	for _, id := range c.pending {
		if cl, ok := c.cells[id]; ok && cl.holder == "" {
			c.runLocal(cl)
		}
	}
	c.pending = nil
}

// loseHeld takes back every cell whose holder lost it, in cell-ID order
// so the backoff jitter they draw replays: each is re-queued behind its
// backoff gate, or handed back for in-process execution once its retry
// budget is spent or no worker is live.
func (c *Coordinator) loseHeld(t time.Time, lost func(holder string) bool) {
	var ids []uint64
	for id := range c.cells {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		cl := c.cells[id]
		if cl.holder == "" || !lost(cl.holder) {
			continue
		}
		c.met.LeaseExpiries++
		cl.attempts++
		cl.holder, cl.leaseID = "", ""
		if cl.attempts > maxAttempts || c.live == 0 {
			c.runLocal(cl)
			continue
		}
		cl.notBefore = t.Add(backoff.Default().Delay(cl.attempts-1, c.rng))
		c.pending = append(c.pending, cl.id)
		c.met.CellsRetried++
	}
}

// runLocal hands a cell back to its Execute for in-process execution.
func (c *Coordinator) runLocal(cl *cell) {
	delete(c.cells, cl.id)
	c.met.CellsLocal++
	cl.done <- outcome{k: cl.k, err: runner.ErrRunLocal}
}

// cellFromJob projects a runner.Job onto the wire, or reports that the
// job cannot cross it (a pinned program, or a fault injector that is not
// reconstructible from a spec) and must run in-process.
func cellFromJob(j runner.Job) (api.Cell, bool) {
	if j.Opts.Program != nil {
		return api.Cell{}, false
	}
	wire := api.Cell{
		Name:        j.Name,
		Config:      j.Config,
		Profile:     j.Profile,
		Insns:       j.Opts.Insns,
		FastForward: j.Opts.FastForward,
		Seed:        j.Opts.Seed,
		Verify:      j.Opts.Verify,
	}
	if j.Opts.Injector != nil {
		inj, ok := j.Opts.Injector.(*fault.Injector)
		if !ok {
			return api.Cell{}, false
		}
		spec := inj.Spec()
		wire.Fault = &api.FaultSpec{
			Site:      string(spec.Site),
			Rate:      spec.Rate,
			Seed:      spec.Seed,
			MaxFaults: spec.MaxFaults,
		}
	}
	return wire, true
}

// JobFromCell rebuilds the runner.Job a wire cell describes — the worker
// side of cellFromJob. The rebuilt job fingerprints exactly as the
// coordinator's job does, so the key the worker's runner computes for its
// own cache is the one a local run would use.
func JobFromCell(c api.Cell) (runner.Job, error) {
	opts := sim.Options{
		Insns:       c.Insns,
		Verify:      c.Verify,
		FastForward: c.FastForward,
		Seed:        c.Seed,
	}
	if c.Fault != nil {
		inj, err := fault.New(fault.Config{
			Site:      fault.Site(c.Fault.Site),
			Rate:      c.Fault.Rate,
			Seed:      c.Fault.Seed,
			MaxFaults: c.Fault.MaxFaults,
		})
		if err != nil {
			return runner.Job{}, fmt.Errorf("fabric: rebuilding cell %d injector: %w", c.ID, err)
		}
		opts.Injector = inj
	}
	return runner.Job{Name: c.Name, Config: c.Config, Profile: c.Profile, Opts: opts}, nil
}
