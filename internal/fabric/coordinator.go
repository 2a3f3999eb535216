package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// now is the fabric's single sanctioned wall-clock read: lease deadlines,
// heartbeat ages and backoff gates all flow through it, so tests freeze
// time and drive the lease state machine deterministically.
//
//determinism:exempt sole injected clock seam; lease deadlines and heartbeat ages only, tests substitute it
var now = time.Now

// CoordinatorConfig shapes the lease state machine. The zero value
// selects the documented defaults; NewCoordinator normalizes it.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// renewal (default 10s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal cadence told to workers
	// (default LeaseTTL/4).
	HeartbeatEvery time.Duration
	// SweepEvery is the expiry scan cadence of Start's background loop
	// (default LeaseTTL/4). Tests bypass it by calling Tick directly. It
	// is also how long LeaseWait holds an idle worker's call, capped at
	// HeartbeatEvery.
	SweepEvery time.Duration
	// DeadAfter is the missed-heartbeat budget: a worker silent for
	// DeadAfter*HeartbeatEvery is marked dead and its leases expire
	// immediately (default 3).
	DeadAfter int
	// LeaseBatch caps the cells granted per lease call (default 8).
	LeaseBatch int
	// MaxAttempts is the lease-expiry budget per cell: beyond it the cell
	// degrades to in-process execution instead of waiting on a fleet that
	// keeps losing it (default 5).
	MaxAttempts int
	// Backoff is the re-queue schedule for cells whose lease expired
	// (zero value = backoff.Default()).
	Backoff backoff.Policy
	// Seed seeds the jitter PRNG (0 = 1), keeping the retry schedule
	// replayable.
	Seed uint64
}

// RemoteCellError is the structured error of a cell a worker completed
// unsuccessfully: the simulation's own failure (a divergence, an
// escalated persistent fault), reported by the worker that ran it.
// Transport failures never take this shape — a worker that cannot report
// surfaces as a lease expiry and a retry instead.
type RemoteCellError struct {
	Worker string
	Msg    string
}

func (e *RemoteCellError) Error() string {
	return fmt.Sprintf("fabric: worker %s: %s", e.Worker, e.Msg)
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
)

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
	attempts  int // lease expiries suffered
	notBefore time.Time
	state     cellState
	leaseID   string
	// done is the submission's settlement channel, buffered for all of
	// its cells; each cell is settled on it exactly once.
	done chan<- outcome
}

type lease struct {
	id       string
	cellID   uint64
	worker   string
	deadline time.Time
}

type workerState struct {
	id       string
	lastSeen time.Time
	dead     bool
}

// Metrics is a consistent snapshot of the fabric counters, rendered by
// the service layer on /metrics.
type Metrics struct {
	WorkersLive, WorkersDead   int
	CellsPending, LeasesActive int

	LeaseExpiries        uint64 // leases that timed out
	CellsRetried         uint64 // cells re-queued after an expiry
	CellsCompleted       uint64 // cells settled by worker completions
	CellsLocal           uint64 // cells handed back for in-process execution (degraded mode)
	DeadWorkers          uint64 // dead-worker transitions
	DuplicateCompletions uint64 // late completions for already-settled cells
	RetryMismatches      uint64 // duplicates that were NOT bit-identical
	LateCompletions      uint64 // completions accepted after their lease expired
	IgnoredCompletions   uint64 // completions for cells no longer tracked
}

// Coordinator shards grid cells across pull-based workers and survives
// their crashes: every granted cell is covered by a heartbeat-renewed
// lease, an expired lease re-queues the cell with capped jittered
// backoff, and a fleet with no live workers degrades to in-process
// execution. It plugs into the grid runner as its Execute seam, so the
// planner, result cache, progress reporting and error capture above it
// are exactly the standalone daemon's.
type Coordinator struct {
	cfg CoordinatorConfig

	mu    sync.Mutex
	rng   *rand.Rand
	cells map[uint64]*cell // unsettled cells
	// settled keeps, per settled cell, only the SHA-256 of its canonical
	// completion: a late duplicate is asserted bit-identical against it.
	settled  map[uint64][sha256.Size]byte
	pending  []uint64 // cell IDs, FIFO; settled/leased entries are skipped lazily
	leases   map[string]*lease
	workers  map[string]*workerState
	live     int // workers not marked dead
	nextCell uint64
	nextLse  uint64
	met      Metrics
	// wake is closed and replaced whenever a submission enqueues cells,
	// releasing every lease call LeaseWait holds.
	wake chan struct{}
}

// NewCoordinator builds a Coordinator, applying defaults for zero
// config fields.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 4
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.LeaseBatch <= 0 {
		cfg.LeaseBatch = 8
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff == (backoff.Policy{}) {
		cfg.Backoff = backoff.Default()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Coordinator{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(seed, 0xfab51c)),
		cells:   make(map[uint64]*cell),
		settled: make(map[uint64][sha256.Size]byte),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
	}
}

// Start launches the background expiry sweeper; it stops when ctx ends.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.cfg.SweepEvery)
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
		if cl, ok := c.cells[id]; ok && cl.state == cellPending {
			m.CellsPending++
		}
	}
	m.LeasesActive = len(c.leases)
	return m
}

// Execute is the runner's dispatch seam: it ships a run's cells to the
// worker fleet as one submission and settles each cell as it lands —
// surviving lease expiries, retries and worker deaths along the way. The
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
		if cl == nil || c.cells[cl.id] != cl {
			continue
		}
		if cl.leaseID != "" {
			delete(c.leases, cl.leaseID)
		}
		delete(c.cells, cl.id)
	}
}

// Lease grants the calling worker the oldest eligible pending cells, in
// queue order, registering (or reviving) it on the way. Any live worker
// may take any cell: the runner answers a repeated cell from the
// coordinator's own result cache before it is enqueued, so no worker's
// cache is worth steering a cell toward. A cell re-queued after a lease
// expiry rejoins the back of the queue.
func (c *Coordinator) Lease(req api.LeaseRequest) api.LeaseResponse {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()

	w, ok := c.workers[req.Worker]
	if !ok {
		w = &workerState{id: req.Worker, dead: true} // revived just below
		c.workers[req.Worker] = w
	}
	if w.dead {
		w.dead = false
		c.live++
	}
	w.lastSeen = t

	max := req.Max
	if max <= 0 || max > c.cfg.LeaseBatch {
		max = c.cfg.LeaseBatch
	}

	// Grant the first max cells past their backoff gate and keep the
	// rest in order, compacting the queue on the way (settled and leased
	// entries drop out here).
	var grant, keep []uint64
	for _, id := range c.pending {
		cl, okc := c.cells[id]
		if !okc || cl.state != cellPending {
			continue
		}
		if len(grant) < max && !cl.notBefore.After(t) {
			grant = append(grant, id)
		} else {
			keep = append(keep, id)
		}
	}
	c.pending = keep

	resp := api.LeaseResponse{
		TTLMillis:       c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.cfg.HeartbeatEvery.Milliseconds(),
		PollMillis:      c.cfg.SweepEvery.Milliseconds(),
	}
	for _, id := range grant {
		cl := c.cells[id]
		c.nextLse++
		lid := fmt.Sprintf("lease-%08d", c.nextLse)
		cl.state, cl.leaseID = cellLeased, lid
		c.leases[lid] = &lease{id: lid, cellID: id, worker: req.Worker, deadline: t.Add(c.cfg.LeaseTTL)}
		resp.Leases = append(resp.Leases, api.Lease{ID: lid, Cell: cl.wire})
	}
	return resp
}

// LeaseWait is Lease for an idle worker's call: when nothing is
// grantable it holds the call until a cell is enqueued, the hold elapses
// (SweepEvery, capped at HeartbeatEvery) or ctx ends, so a fresh cell
// reaches a worker at once instead of at its next poll. Every reply
// carries PollMillis 0: the worker polls again at once. When the hold
// elapses Lease runs once more, refreshing the worker's liveness, so a
// worker parked here is never marked dead. A call that ctx releases
// returns without a grant.
func (c *Coordinator) LeaseWait(ctx context.Context, req api.LeaseRequest) api.LeaseResponse {
	hold := time.NewTimer(min(c.cfg.SweepEvery, c.cfg.HeartbeatEvery))
	defer hold.Stop()
	for elapsed := false; ; {
		c.mu.Lock()
		wake := c.wake // taken before Lease, so no enqueue after it is missed
		c.mu.Unlock()
		resp := c.Lease(req)
		resp.PollMillis = 0
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

// Heartbeat renews the worker's liveness and every lease it holds.
// Known=false tells a worker the coordinator no longer tracks it (a
// restart or a dead-worker expiry): its leases are gone, and whatever it
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
	var ids []string
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if l := c.leases[id]; l.worker == req.Worker {
			l.deadline = t.Add(c.cfg.LeaseTTL)
		}
	}
	return api.HeartbeatResponse{Known: true}
}

// Complete settles a batch of finished cells. A completion whose lease
// expired is still accepted if the cell has not been settled elsewhere
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
		var cl *cell
		if l, ok := c.leases[comp.LeaseID]; ok {
			cl = c.cells[l.cellID]
		} else if cand, ok := c.cells[comp.CellID]; ok {
			cl = cand
		}
		if cl == nil {
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
		if cl.leaseID != "" && cl.leaseID != comp.LeaseID {
			// The cell was re-leased after this worker's lease expired;
			// its late completion wins the race and the re-leasing
			// worker's copy will arrive as the duplicate.
			delete(c.leases, cl.leaseID)
		}
		if _, ok := c.leases[comp.LeaseID]; !ok && comp.LeaseID != "" {
			c.met.LateCompletions++
		}
		delete(c.leases, comp.LeaseID)
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

// Tick runs one expiry sweep: workers past their missed-heartbeat budget
// are marked dead, expired leases re-queue their cells with capped
// jittered backoff, and cells whose retry budget is gone — or that have
// no live workers left to go to, leased or still pending — are routed
// back to their waiting Execute for in-process execution. Start drives
// it on a timer; tests call it directly under a frozen clock.
func (c *Coordinator) Tick() {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Dead workers first, so their leases expire in the same sweep.
	deadline := time.Duration(c.cfg.DeadAfter) * c.cfg.HeartbeatEvery
	var wids []string
	for id := range c.workers {
		wids = append(wids, id)
	}
	sort.Strings(wids)
	for _, id := range wids {
		w := c.workers[id]
		if !w.dead && t.Sub(w.lastSeen) > deadline {
			w.dead = true
			c.live--
			c.met.DeadWorkers++
		}
	}

	var lids []string
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Strings(lids)
	live := c.live
	for _, lid := range lids {
		l := c.leases[lid]
		if !l.deadline.Before(t) && c.workers[l.worker] != nil && !c.workers[l.worker].dead {
			continue
		}
		delete(c.leases, lid)
		cl, ok := c.cells[l.cellID]
		if !ok || cl.state != cellLeased {
			continue
		}
		c.met.LeaseExpiries++
		cl.attempts++
		cl.leaseID = ""
		if cl.attempts > c.cfg.MaxAttempts || live == 0 {
			// Degrade: hand the cell back to its Execute for in-process
			// execution instead of queueing on a fleet that keeps losing
			// it.
			delete(c.cells, cl.id)
			c.met.CellsLocal++
			cl.done <- outcome{k: cl.k, err: runner.ErrRunLocal}
			continue
		}
		cl.state = cellPending
		cl.notBefore = t.Add(c.cfg.Backoff.Delay(cl.attempts-1, c.rng))
		c.pending = append(c.pending, cl.id)
		c.met.CellsRetried++
	}
	if live > 0 {
		return
	}
	// No worker is left to lease the queue: hand every pending cell back
	// too, or its Execute would wait on it until the run's context ends.
	for _, id := range c.pending {
		cl, ok := c.cells[id]
		if !ok || cl.state != cellPending {
			continue
		}
		delete(c.cells, cl.id)
		c.met.CellsLocal++
		cl.done <- outcome{k: cl.k, err: runner.ErrRunLocal}
	}
	c.pending = nil
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
