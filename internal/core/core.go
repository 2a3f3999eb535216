package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/isa"
	"repro/internal/program"
)

// ErrStopped is returned by Run when RequestStop ended the simulation
// before the program completed. Callers that stop a core in response to
// context cancellation should translate it back into the context's error.
var ErrStopped = errors.New("core: stopped")

// FaultInjector lets the fault-injection harness corrupt values at the
// three points the paper's Section 3.4 analyzes: functional unit outputs,
// operand forwarding, and the IRB array. All methods must be deterministic
// for a given (seq, pc) so runs are reproducible. seq is the architected
// sequence number of the instruction — shared by the two copies of a DIE
// pair — so an injector can model the standard single-fault-at-a-time
// assumption by striking each dynamic instruction at most once. A nil
// injector means a fault-free run.
type FaultInjector interface {
	// FUResult may corrupt the outcome signature produced when the given
	// instruction copy executes on a functional unit.
	FUResult(seq uint64, pc uint64, dup bool, sig uint64) uint64
	// Operand may corrupt source operand `which` (1 or 2) of the given
	// copy as it is captured into the issue window, modeling a fault on
	// a forwarding path.
	Operand(seq uint64, pc uint64, dup bool, which int, val uint64) uint64
	// AfterIRBInsert runs after pc's reuse-buffer entry is written,
	// allowing the injector to strike the stored entry.
	AfterIRBInsert(pc uint64, b *irb.IRB)
}

// fetchEntry is one instruction in the fetch-to-dispatch queue.
type fetchEntry struct {
	pc       uint64
	in       isa.Instr
	predNext uint64
	cycle    uint64
}

// uopChunk is how many uops the arena grows by when the free list runs
// dry. The steady-state population is bounded by the RUU size, so a
// handful of chunks serve an entire run.
const uopChunk = 128

// scratch is the recyclable allocation-heavy state of a core: the uop
// arena's free list and the event heap's backing array. Cores draw one
// from a package pool at construction and Release returns it when the run
// ends, so a grid's many sequential cells reuse the same uop slots and
// consumers arrays instead of re-warming fresh ones.
type scratch struct {
	events eventQueue
	free   []*uop
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Core is one simulated processor executing one program.
type Core struct {
	cfg     Config
	caps    Capabilities // the mode's registered capability flags, cached
	streams int          // copies dispatched per architected instruction
	prog    *program.Program
	front   *fsim.Front
	pred    *bpred.Predictor
	mem     *cache.Hierarchy
	reuse   *irb.IRB  // nil unless the mode uses the IRB
	trb     *trbState // nil unless the mode uses the TRB (see trb.go)
	inj     FaultInjector
	tracer  Tracer

	Stats Stats

	// OnCommit, when set, observes every architected instruction in
	// retirement order; the simulation driver uses it to verify the
	// timing core against an independent functional run.
	OnCommit func(rec *fsim.Retired)

	cycle    uint64
	seq      uint64
	done     bool
	abortErr error
	stopReq  atomic.Bool

	// Fetch state.
	fetchPC         uint64
	fq              *fetchQueue
	fetchStallUntil uint64
	curFetchBlock   uint64
	fetchStopped    bool // halt fetched; wait for redirect or commit

	ruu    *ring
	lsq    *ring
	fus    *fuPool // single pool, or cluster 0 when Clustered
	fusDup *fuPool // cluster 1 (duplicate stream) when Clustered

	// events and freeUops live in sc but are mirrored here as direct
	// fields for the hot loop; Release writes them back.
	sc       *scratch
	events   eventQueue
	freeUops []*uop
	freeFn   func(*uop) // c.freeUop, bound once (method values allocate)

	// ready is the issue window's ready set, one bit per RUU buffer slot:
	// bit i is set exactly when slot i holds a uWaiting uop with no
	// pending producer (waitCount == 0). Dispatch and completeUop's
	// wakeup loop set bits, trySelect clears them when it issues a uop or
	// completes it by reuse, so selectIssue visits only uops wakeup has
	// released instead of every waiting one.
	ready []uint64

	// regVer counts architected-register writes entering the pipeline,
	// for the name-based reuse test. Wrong-path bumps are never undone:
	// that only costs reuse opportunities, never correctness.
	regVer [isa.NumRegs]uint32

	// Rename tables: latest producer per register, per stream. In
	// DIE-IRB the duplicate stream reads prodP — duplicates are woken by
	// primary results (the paper's forwarding property) — so prodD is
	// maintained only in plain DIE mode.
	prodP [isa.NumRegs]prodRef
	prodD [isa.NumRegs]prodRef

	lastCommitCycle uint64

	// dupBuf holds the shadow copies of the instruction being dispatched
	// (streams-1 entries), reused every dispatch to keep the hot loop
	// allocation-free.
	dupBuf []*uop

	// REPLAY-mode state (see replay.go): nil in every other mode. While
	// cycle <= stallUntil the whole pipeline is frozen, modeling the
	// replay engine's claim on the datapath.
	replay     *replayState
	stallUntil uint64

	// Fault-recovery state (see recovery.go). faultRetries counts
	// consecutive commit-check failures per static PC, cleared when the
	// PC commits successfully; the repair window tracks mean time to
	// repair from first detection to the repaired commit.
	faultRetries map[uint64]uint32
	repairOpen   bool
	repairSeq    uint64
	repairDetect uint64
}

// deadlockWindow is how many cycles without a commit make Run fail with a
// diagnostic; real stalls (cache misses, div chains) are far shorter.
const deadlockWindow = 1_000_000

// New builds a core for prog. The program is loaded into a fresh
// functional machine; no instructions have executed yet.
func New(cfg Config, prog *program.Program) (*Core, error) {
	return NewAt(cfg, fsim.New(prog))
}

// NewAt builds a core that starts timing simulation from the given
// functional machine's current state — the machinery behind fast-forward:
// the caller runs the machine (cheaply, in the functional simulator) past
// initialization or warmup phases, then attaches the timing core. The
// caches and predictors start cold, as with SimpleScalar's -fastfwd. The
// machine must not be halted and must not be stepped by the caller
// afterwards.
func NewAt(cfg Config, m *fsim.Machine) (*Core, error) {
	prog := m.Prog
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if m.Halted {
		return nil, fmt.Errorf("core: cannot attach to a halted machine")
	}
	pred, err := bpred.New(cfg.Bpred)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Cache)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:           cfg,
		caps:          cfg.Mode.Caps(),
		streams:       cfg.Streams(),
		prog:          prog,
		front:         fsim.NewFront(m),
		pred:          pred,
		mem:           mem,
		fetchPC:       m.PC,
		curFetchBlock: ^uint64(0),
		ruu:           newRing(cfg.RUUSize),
		lsq:           newRing(cfg.LSQSize),
		fq:            newFetchQueue(cfg.FetchQueue),
		ready:         make([]uint64, (cfg.RUUSize+63)/64),
	}
	c.dupBuf = make([]*uop, c.streams-1)
	if c.caps.Compare == CompareEpoch {
		c.replay = newReplayState(cfg)
	}
	c.sc = scratchPool.Get().(*scratch)
	c.events = c.sc.events
	c.freeUops = c.sc.free
	c.freeFn = c.freeUop
	c.fus = newFUPool(cfg.FUs)
	if cfg.Clustered {
		// Each cluster owns a full copy of the functional unit mix —
		// the replication that makes the paper call this alternative
		// "almost a spatial redundancy approach".
		c.fusDup = newFUPool(cfg.FUs)
	}
	if c.caps.UsesIRB {
		if c.reuse, err = irb.New(cfg.IRB); err != nil {
			return nil, err
		}
	}
	if c.caps.UsesTRB {
		if c.trb, err = newTRBState(cfg, prog); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Release returns the core's recyclable buffers (the uop arena and the
// event heap) to the package pool for the next run. The sim
// driver calls it when a run's statistics have been extracted; the core
// must not be ticked afterwards. Release is idempotent and optional —
// a core that is never released just leaves its buffers to the GC.
func (c *Core) Release() {
	sc := c.sc
	if sc == nil {
		return
	}
	c.sc = nil
	// Drop uop references held beyond the slice's logical length so the
	// pooled backing array does not pin a finished run's pipeline state.
	clear(c.events)
	sc.events = c.events[:0]
	sc.free = c.freeUops
	c.events, c.freeUops = nil, nil
	scratchPool.Put(sc)
}

// allocUop returns a reset uop from the free list, growing the arena by a
// chunk when it runs dry. A recycled uop keeps its generation counter
// (bumped at free) and its consumers backing array, so the steady-state
// dispatch path allocates nothing.
//
//lint:hotpath
func (c *Core) allocUop() *uop {
	if n := len(c.freeUops); n > 0 {
		u := c.freeUops[n-1]
		c.freeUops = c.freeUops[:n-1]
		gen, cons := u.gen, u.consumers[:0]
		*u = uop{gen: gen, consumers: cons}
		return u
	}
	//hotalloc:exempt amortized arena growth: one chunk allocation serves uopChunk dispatches
	chunk := make([]uop, uopChunk)
	for i := range chunk[1:] {
		c.freeUops = append(c.freeUops, &chunk[1+i])
	}
	return &chunk[0]
}

// freeUop recycles u at commit or squash. Bumping the generation
// invalidates every stale reference still held by the event heap,
// consumer links and rename tables.
//
//lint:hotpath
func (c *Core) freeUop(u *uop) {
	u.gen++
	u.pair = nil
	c.freeUops = append(c.freeUops, u)
}

// SetInjector installs a fault injector; call before Run.
func (c *Core) SetInjector(inj FaultInjector) { c.inj = inj }

// IRB returns the reuse buffer, or nil when the mode has none.
func (c *Core) IRB() *irb.IRB { return c.reuse }

// Bpred returns the branch predictor (for statistics).
func (c *Core) Bpred() *bpred.Predictor { return c.pred }

// Mem returns the cache hierarchy (for statistics).
func (c *Core) Mem() *cache.Hierarchy { return c.mem }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// RequestStop asks a running simulation to stop at the next cycle
// boundary, after which Run returns ErrStopped. It is the only Core
// method safe to call from another goroutine; the simulation driver uses
// it to implement context cancellation.
func (c *Core) RequestStop() { c.stopReq.Store(true) }

// Abort stops the simulation from inside a callback (such as OnCommit)
// and makes Run return err. The current cycle still completes.
func (c *Core) Abort(err error) {
	c.abortErr = err
	c.done = true
}

// Run simulates until the program halts, MaxInsns commit, an internal
// limit trips, or the run is stopped via RequestStop or Abort. The final
// statistics are in c.Stats.
func (c *Core) Run() error {
	for !c.done {
		if c.stopReq.Load() {
			c.Stats.Cycles = c.cycle
			return ErrStopped
		}
		c.Tick()
		if c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles {
			return fmt.Errorf("core: %q exceeded %d cycles", c.prog.Name, c.cfg.MaxCycles)
		}
		if c.cycle > c.lastCommitCycle && c.cycle-c.lastCommitCycle > deadlockWindow {
			return fmt.Errorf("core: %q deadlocked at cycle %d (ruu=%d lsq=%d fq=%d committed=%d)",
				c.prog.Name, c.cycle, c.ruu.len(), c.lsq.len(), c.fq.len(), c.Stats.Committed)
		}
	}
	c.Stats.Cycles = c.cycle
	return c.abortErr
}

// Tick advances the machine one cycle. Stages run commit-first so a result
// produced in cycle t is consumable in cycle t (wakeup before select) and
// an instruction dispatched in cycle t issues no earlier than t+1.
//
//lint:hotpath
func (c *Core) Tick() {
	c.cycle++
	if c.cycle <= c.stallUntil {
		// REPLAY epoch check in progress: the replay engine owns the
		// datapath, nothing else advances (see replayEpochCheck).
		return
	}
	c.commit()
	c.writeback()
	c.memIssue()
	c.selectIssue()
	c.dispatch()
	c.fetch()
}

// ---------------------------------------------------------------- fetch

//lint:hotpath
func (c *Core) fetch() {
	if c.done || c.fetchStopped || c.cycle < c.fetchStallUntil {
		return
	}
	for budget := c.cfg.FetchWidth; budget > 0 && !c.fq.full(); budget-- {
		addr := c.fetchPC * isa.InstrBytes
		block := addr / uint64(c.cfg.Cache.L1I.BlockBytes)
		if block != c.curFetchBlock {
			lat := c.mem.AccessI(addr)
			c.curFetchBlock = block
			if lat > c.cfg.Cache.L1I.HitLat {
				// Miss: the block arrives after the stall; the
				// instruction is fetched then.
				c.fetchStallUntil = c.cycle + uint64(lat)
				return
			}
		}
		in := c.prog.Fetch(c.fetchPC)
		predNext := c.pred.Predict(c.fetchPC, in)
		c.fq.push(fetchEntry{pc: c.fetchPC, in: in, predNext: predNext, cycle: c.cycle})
		c.Stats.Fetched++
		if in.Op == isa.OpHalt {
			c.fetchStopped = true
			return
		}
		taken := predNext != c.fetchPC+1
		c.fetchPC = predNext
		if taken {
			// One taken control transfer per fetch cycle.
			return
		}
	}
}

// ---------------------------------------------------------------- dispatch

//lint:hotpath
func (c *Core) dispatch() {
	need := c.streams
	slots := c.cfg.DecodeWidth
	if c.fq.len() == 0 {
		c.Stats.FetchQEmpty++
	}
	for slots >= need && c.fq.len() > 0 {
		fe := *c.fq.front()
		if c.ruu.free() < need {
			c.Stats.RUUFullStalls++
			return
		}
		isMem := fe.in.Op.Info().IsMem()
		if isMem && c.lsq.free() == 0 {
			c.Stats.LSQFullStalls++
			return
		}

		// Execute functionally at the dispatch front, exactly like
		// sim-outorder: correct-path instructions advance the
		// architectural machine, wrong-path ones run in the overlay.
		var rec fsim.Retired
		wrong := false
		if !c.front.Spec() {
			if c.front.Halted() {
				// Nothing after a correct-path halt is
				// dispatchable; the queue can only hold stale
				// entries if fetch raced a redirect.
				c.fq.clear()
				return
			}
			if fe.pc != c.front.PC() {
				//nopanic:invariant fetch and the functional front advance in lockstep by construction
				panic(fmt.Sprintf("core: dispatch pc %d != front pc %d", fe.pc, c.front.PC()))
			}
			if c.trb != nil {
				// Window walk and lookup run against the pre-step
				// architected state, before the front advances.
				c.trbBefore(fe.pc)
			}
			r, err := c.front.StepCorrect()
			if err != nil {
				//nopanic:invariant the oracle already executed this instruction without error
				panic(err)
			}
			rec = r
		} else {
			rec = c.front.StepSpecAt(fe.pc)
			wrong = true
		}
		c.fq.popFront()
		slots -= need

		// One copy group: the primary plus streams-1 shadow copies,
		// linked into a circular pair ring (primary -> dup1 -> ... ->
		// primary) so recovery can reach every member from any one.
		primary := c.newUop(&fe, rec, wrong, false)
		dups := c.dupBuf[:0]
		prev := primary
		for s := 1; s < need; s++ {
			dupU := c.newUop(&fe, rec, wrong, true)
			prev.pair = dupU
			prev = dupU
			dups = append(dups, dupU)
		}
		if prev != primary {
			prev.pair = primary
		}

		primary.slot = c.ruu.push(primary)
		if isMem {
			primary.memAccess = true
			c.lsq.push(primary)
		}
		for _, dupU := range dups {
			dupU.slot = c.ruu.push(dupU)
		}

		c.wireAndRename(primary, dups)
		// Copies waiting on no producer enter the ready set now; the
		// rest join it when completeUop releases their last operand.
		if primary.state == uWaiting && primary.waitCount == 0 {
			c.ready[primary.slot>>6] |= 1 << (primary.slot & 63)
		}
		for _, dupU := range dups {
			if dupU.state == uWaiting && dupU.waitCount == 0 {
				c.ready[dupU.slot>>6] |= 1 << (dupU.slot & 63)
			}
		}
		if c.tracer != nil {
			c.tracer.Dispatch(c.cycle, primary.seq, false, wrong, &primary.rec)
			for _, dupU := range dups {
				c.tracer.Dispatch(c.cycle, dupU.seq, true, wrong, &dupU.rec)
			}
		}
		if c.trb != nil && !wrong {
			c.trbAfter(&primary.rec)
		}

		// A correct-path control transfer whose prediction was wrong
		// switches the front to wrong-path execution; recovery happens
		// when the first copy of the group resolves.
		if !wrong && fe.predNext != rec.NextPC {
			if !fe.in.Op.Info().IsCtrl() {
				//nopanic:invariant only control ops can be flagged mispredicted at fetch
				panic(fmt.Sprintf("core: non-control mispredict at pc %d", fe.pc))
			}
			primary.mispred = true
			for _, dupU := range dups {
				dupU.mispred = true
			}
			c.front.EnterSpec()
		}
	}
}

// newUop builds one instruction copy at dispatch, applying operand fault
// injection and starting the IRB lookup where the mode calls for it.
//
//lint:hotpath
func (c *Core) newUop(fe *fetchEntry, rec fsim.Retired, wrong, dup bool) *uop {
	c.seq++
	u := c.allocUop()
	u.seq = c.seq
	u.rec = rec
	u.dup = dup
	u.wrongPath = wrong
	u.dispatchCycle = c.cycle
	u.fetchCycle = fe.cycle
	u.predNext = fe.predNext
	u.readyAt = c.cycle + 1
	u.src1c = rec.Src1
	u.src2c = rec.Src2
	c.Stats.Dispatched++
	if wrong {
		c.Stats.WrongPath++
	}
	if oi := rec.Instr.Op.Info(); oi.UsesSrc1 {
		u.ver1 = c.regVer[rec.Instr.Src1]
	}
	if oi := rec.Instr.Op.Info(); oi.UsesSrc2 {
		u.ver2 = c.regVer[rec.Instr.Src2]
	}
	// A TRB-served duplicate never executes: the recorded window
	// signature stands in for the whole copy, delivered once the lookup
	// latency has elapsed. It bypasses operand injection, the IRB, and
	// the functional units — the duplicate work does not exist, so
	// injection opportunities are accounted against the leader only.
	if c.trb != nil && dup && !wrong && c.trb.serving {
		u.trbServed = true
		u.trbEntry = c.trb.skipEntry
		u.outSig = c.trb.serveSig
		u.state = uIssued
		c.Stats.TRBInstrSkipped++
		at := c.cycle + 1
		if c.trb.skipReady > at {
			at = c.trb.skipReady
		}
		c.events.schedule(at, evTRBDone, u)
		return u
	}

	if c.inj != nil {
		oi := rec.Instr.Op.Info()
		if oi.UsesSrc1 {
			u.src1c = c.inj.Operand(rec.Seq, rec.PC, dup, 1, u.src1c)
		}
		if oi.UsesSrc2 {
			u.src2c = c.inj.Operand(rec.Seq, rec.PC, dup, 2, u.src2c)
		}
		u.corrupted = u.src1c != rec.Src1 || u.src2c != rec.Src2
	}

	// The IRB is looked up in parallel with fetch; port arbitration
	// happens now and the data becomes usable for the reuse test
	// LookupLat cycles after fetch.
	if c.reuse != nil && c.streamUsesIRB(dup) && irbReusable(rec.Instr) {
		if e, hit := c.reuse.Lookup(c.cycle, rec.PC); hit {
			u.irbPCHit = true
			u.irbEntry = e
			u.irbReady = fe.cycle + uint64(c.cfg.IRB.LookupLat)
			if u.irbReady <= c.cycle {
				u.irbReady = c.cycle + 1
			}
		}
	}

	// Operations needing no functional unit complete by themselves.
	if rec.Instr.Op.Info().Class == isa.FUNone {
		u.state = uIssued
		c.events.schedule(c.cycle+1, evExecDone, u)
	}
	return u
}

// streamUsesIRB reports whether the given stream consults the IRB: every
// stream when the mode's single stream is the IRB consumer (SIE-IRB),
// otherwise the duplicate stream (plus the primary under IRBBothStreams).
func (c *Core) streamUsesIRB(dup bool) bool {
	if !c.caps.UsesIRB {
		return false
	}
	if c.caps.IRBAllStreams {
		return true
	}
	return dup || c.cfg.IRBBothStreams
}

// wireAndRename links the new copy group's source operands to their
// producers and installs the group as the latest producers of its
// destination. All shadow copies are wired before the destination is
// installed, so no copy can consume its own group's result.
//
//lint:hotpath
func (c *Core) wireAndRename(primary *uop, dups []*uop) {
	c.wireSources(primary, &c.prodP)
	for _, dupU := range dups {
		if dupU.trbServed {
			// A served copy waits on no producers — that is the whole
			// ALU-bandwidth win — and is never a producer itself
			// (DIE-TRB forwards primary results like DIE-IRB).
			continue
		}
		if c.caps.IndependentDataflow {
			// Independent dataflow per stream (DIE).
			c.wireSources(dupU, &c.prodD)
		} else {
			// Shadow copies are woken by primary results (DIE-IRB's
			// forwarding property; TMR shares the same wiring).
			c.wireSources(dupU, &c.prodP)
		}
	}
	in := primary.rec.Instr
	if in.Op.Info().HasDest && in.Dest != isa.ZeroReg {
		c.regVer[in.Dest]++
		c.prodP[in.Dest] = prodRef{primary, primary.gen}
		if len(dups) > 0 && c.caps.IndependentDataflow {
			dupU := dups[0]
			if in.Op.Info().IsLoad {
				// The memory access happens once, by the primary;
				// the duplicate only recomputes the address. Both
				// streams' consumers therefore receive the loaded
				// value when that single access completes.
				c.prodD[in.Dest] = prodRef{primary, primary.gen}
			} else {
				c.prodD[in.Dest] = prodRef{dupU, dupU.gen}
			}
		}
	}
}

// wireSources registers u as a consumer of the pending producers of its
// source registers. A rename slot whose generation is stale refers to a
// producer that already left the pipeline (committed and recycled), which
// the old pointer-table code read as the uDone state.
//
//lint:hotpath
func (c *Core) wireSources(u *uop, table *[isa.NumRegs]prodRef) {
	oi := u.rec.Instr.Op.Info()
	add := func(r isa.Reg) {
		if r == isa.ZeroReg {
			return
		}
		p := table[r]
		if !p.live() || p.u.state == uDone || p.u.state == uSquashed {
			return
		}
		p.u.consumers = append(p.u.consumers, consumerLink{u, u.gen})
		u.waitCount++
	}
	if oi.UsesSrc1 {
		add(u.rec.Instr.Src1)
	}
	if oi.UsesSrc2 {
		add(u.rec.Instr.Src2)
	}
}

// ---------------------------------------------------------------- issue

//lint:hotpath
func (c *Core) selectIssue() {
	slots := c.cfg.IssueWidth
	if c.cfg.Clustered {
		// Each cluster has its own issue unit of half the width; the
		// two-pass structure maps passes onto clusters.
		slots = c.cfg.IssueWidth / 2
	}
	if c.cfg.IRBAsFU && c.reuse != nil {
		// Ablation B: charge the wakeup/bypass growth of IRB-as-FU by
		// treating each IRB read port as a consumed broadcast slot.
		slots -= c.cfg.IRB.ReadPorts
		if slots < 1 {
			slots = 1
		}
	}
	// The decoupled (non-data-capture) scheduler pipelines wakeup and
	// selection: an instruction woken in cycle t is selectable in t+1,
	// after its register file read (Section 3.3).
	var selDelay uint64
	if c.cfg.Scheduler == Decoupled {
		selDelay = 1
	}
	// Selection runs in two passes, primaries before duplicates (each
	// oldest-first): the paper's design keeps the primary stream
	// "executed by the functional units as in SIE", so ready duplicates
	// never displace ready primary work. The reuse test itself runs in
	// the first pass regardless — it is overlapped with wakeup and
	// consumes neither an issue slot nor a functional unit.
	//
	// Each pass visits the ready set — only uops whose producers have all
	// completed, not every waiting one — in RUU age order: buffer slots
	// from the head to the end, then from 0 up to the head. The word
	// under the cursor is re-read at every step, so a consumer that an
	// IRBChaining reuse completion wakes mid-pass is still visited in the
	// same pass: it is younger than its producer, hence ahead of the
	// cursor.
	head := c.ruu.head
	for pass := 0; pass < 2; pass++ {
		for seg, lo, hi := 0, head, len(c.ruu.buf); seg < 2; seg, lo, hi = seg+1, 0, head {
			for i := lo; i < hi; i++ {
				w := c.ready[i>>6] >> (i & 63)
				if w == 0 {
					i |= 63 // the loop increment moves to the next word
					continue
				}
				if i += bits.TrailingZeros64(w); i >= hi {
					break
				}
				if c.trySelect(c.ruu.buf[i], pass, &slots, selDelay) {
					// Recovery rebuilt the ready set from the
					// surviving window; this scan is stale.
					return
				}
			}
		}
		if c.streams == 1 {
			break
		}
		if c.cfg.Clustered {
			// The duplicate cluster's issue unit has its own slots.
			slots = c.cfg.IssueWidth / 2
		}
	}
}

// trySelect runs the per-candidate body of the issue loop: the overlapped
// IRB reuse test on the first pass, then the pass's slot and functional
// unit arbitration. It reports whether a reuse completion resolved a
// mispredicted branch and triggered recovery, in which case the caller's
// scan state is invalid and it must return immediately.
//
//lint:hotpath
func (c *Core) trySelect(u *uop, pass int, slots *int, selDelay uint64) bool {
	// The ready set holds only uops with no pending producer; the last
	// producer's broadcast may still be in flight.
	if u.readyAt+selDelay > c.cycle {
		return false
	}

	if pass == 0 && u.irbPCHit && !u.irbTested && c.cycle >= u.irbReady {
		u.irbTested = true
		if c.reuseTest(u) {
			u.reuseHit = true
			c.Stats.IRBReuseHits++
			if c.tracer != nil {
				c.tracer.ReuseHit(c.cycle, u.seq, &u.rec)
			}
			u.outSig = irbOutSig(&u.rec, u.irbEntry)
			c.ready[u.slot>>6] &^= 1 << (u.slot & 63)
			return c.completeUop(u)
		}
		c.Stats.IRBReuseMiss++
	}
	if u.dup != (pass == 1) {
		return false
	}

	if *slots == 0 {
		c.Stats.ReadyNotIssued++
		return false
	}
	op := u.rec.Instr.Op
	if !c.allocFU(u, op) {
		c.Stats.ReadyNotIssued++
		return false
	}
	(*slots)--
	c.Stats.IssueSlotsUsed++
	c.Stats.Issued[fuBucket(op)]++
	if u.dup {
		c.Stats.DupFUExec++
	}
	if u.irbPCHit && !u.irbTested {
		c.Stats.IRBNotReady++
	}
	if c.tracer != nil {
		c.tracer.Issue(c.cycle, u.seq, u.dup, &u.rec)
	}
	u.state = uIssued
	c.ready[u.slot>>6] &^= 1 << (u.slot & 63)
	if op.Info().IsMem() {
		// Address generation: one IntALU cycle; the memory access
		// (primary copy only) follows via the LSQ.
		c.events.schedule(c.cycle+1, evAddrDone, u)
	} else {
		c.events.schedule(c.cycle+uint64(op.Info().Latency), evExecDone, u)
	}
	return false
}

// reuseTest runs the configured reuse test for a PC-hitting duplicate:
// operand-value comparison (the paper's default) or the name-based version
// check of Section 3.3.
//
//lint:hotpath
func (c *Core) reuseTest(u *uop) bool {
	if c.cfg.IRBNameBased {
		return u.irbEntry.MatchesVersions(u.ver1, u.ver2)
	}
	return u.irbEntry.Matches(u.src1c, u.src2c)
}

// allocFU reserves a functional unit for u, honouring the cluster split:
// with Clustered, primaries draw from cluster 0 and duplicates from
// cluster 1, falling back to the shared pool for singleton units.
//
//lint:hotpath
func (c *Core) allocFU(u *uop, op isa.Op) bool {
	cl, occ := op.Info().Class, occupancy(op)
	pool := c.fus
	if c.cfg.Clustered && u.dup {
		pool = c.fusDup
	}
	return pool.alloc(cl, c.cycle, occ)
}

func fuBucket(op isa.Op) int {
	switch op.Info().Class {
	case isa.FUIntMult:
		return bucketIntMult
	case isa.FUFPAdd:
		return bucketFPAdd
	case isa.FUFPMult:
		return bucketFPMult
	default:
		if op.Info().IsMem() {
			return bucketMem
		}
		return bucketIntALU
	}
}

// ---------------------------------------------------------------- memory

// memIssue starts data cache accesses for loads whose address is known,
// enforcing conservative disambiguation (a load waits until every older
// store in the LSQ has computed its address) and store-to-load forwarding.
//
//lint:hotpath
func (c *Core) memIssue() {
	ports := c.cfg.FUs[isa.FUMemPort]
	olderStoresReady := true
	for i := 0; i < c.lsq.len(); i++ {
		u := c.lsq.at(i)
		if u.rec.Instr.Op.Info().IsStore {
			if !u.addrReady {
				olderStoresReady = false
			}
			continue
		}
		if u.memStarted || !u.addrReady || !olderStoresReady {
			continue
		}
		if fwd := c.forwardingStore(i, u.rec.Addr); fwd {
			u.memStarted = true
			c.Stats.LoadForwarded++
			c.events.schedule(c.cycle+1, evLoadDone, u)
			continue
		}
		if ports == 0 {
			continue
		}
		ports--
		lat := c.mem.AccessD(u.rec.Addr, false)
		u.memStarted = true
		c.events.schedule(c.cycle+uint64(lat), evLoadDone, u)
	}
}

// forwardingStore reports whether an older store in the LSQ matches addr
// and can forward its data to the load at LSQ position loadIdx.
//
//lint:hotpath
func (c *Core) forwardingStore(loadIdx int, addr uint64) bool {
	for j := loadIdx - 1; j >= 0; j-- {
		s := c.lsq.at(j)
		if s.rec.Instr.Op.Info().IsStore && s.rec.Addr == addr {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- writeback

// writeback drains all completion events due this cycle: functional unit
// results, address calculations and load returns. Completions wake
// consumers and may trigger branch-misprediction recovery.
//
//lint:hotpath
func (c *Core) writeback() {
	for len(c.events) > 0 && c.events[0].cycle <= c.cycle {
		e := c.events.pop()
		u := e.u
		if u.gen != e.gen || u.state == uSquashed {
			// The uop was squashed (and possibly recycled into a new
			// instruction) after this event was scheduled.
			continue
		}
		switch e.kind {
		case evExecDone:
			u.outSig = outSignature(&u.rec, u.src1c, u.src2c)
			if c.inj != nil && u.rec.Instr.Op.Info().Class != isa.FUNone {
				sig := c.inj.FUResult(u.rec.Seq, u.rec.PC, u.dup, u.outSig)
				if sig != u.outSig {
					u.outSig = sig
					u.corrupted = true
				}
			}
			if c.completeUop(u) {
				continue
			}
		case evAddrDone:
			u.addrReady = true
			u.outSig = outSignature(&u.rec, u.src1c, u.src2c)
			if c.inj != nil {
				sig := c.inj.FUResult(u.rec.Seq, u.rec.PC, u.dup, u.outSig)
				if sig != u.outSig {
					u.outSig = sig
					u.corrupted = true
				}
			}
			// Stores and address-calculation-only copies are done;
			// primary loads proceed to the cache via memIssue.
			if !u.memAccess || u.rec.Instr.Op.Info().IsStore {
				c.completeUop(u)
			}
		case evLoadDone:
			c.completeUop(u)
		case evTRBDone:
			// Signature set at dispatch from the recorded window; there
			// is no execution and hence no FU-result injection point.
			if c.completeUop(u) {
				continue
			}
		}
	}
}

// completeUop marks u done, wakes its consumers and handles control-flow
// resolution. It reports whether a misprediction recovery squashed the
// pipeline (callers iterating structures must then stop).
//
//lint:hotpath
func (c *Core) completeUop(u *uop) bool {
	if u.state == uDone {
		//nopanic:invariant a uop completes exactly once by the scheduler's bookkeeping
		panic("core: double completion")
	}
	u.state = uDone
	u.completeCycle = c.cycle
	if c.tracer != nil {
		c.tracer.Complete(c.cycle, u.seq, u.dup, &u.rec)
	}
	wake := c.cycle
	if u.reuseHit && !c.cfg.IRBChaining {
		// A reuse hit's value reaches consumers' operand lines a cycle
		// later, like any other broadcast; only Sn+d-style chaining
		// hardware lets dependent reuse tests cascade within a cycle.
		wake++
	}
	for _, link := range u.consumers {
		consumer := link.u
		if consumer.gen != link.gen || consumer.state == uSquashed {
			continue
		}
		consumer.waitCount--
		at := wake
		if c.cfg.Clustered && consumer.dup != u.dup {
			// Inter-cluster forwarding costs an extra cycle.
			at++
		}
		if consumer.readyAt < at {
			consumer.readyAt = at
		}
		if consumer.waitCount == 0 && consumer.state == uWaiting {
			c.ready[consumer.slot>>6] |= 1 << (consumer.slot & 63)
		}
	}
	u.consumers = u.consumers[:0]

	// Branch resolution: the first copy of a mispredicted correct-path
	// control transfer to resolve triggers recovery (the paper exploits
	// exactly this "earliest of the two streams" property).
	if u.mispred && !u.wrongPath {
		c.recover(u)
		return true
	}
	return false
}

// recover squashes everything younger than u's pair and redirects fetch to
// the architecturally correct path.
func (c *Core) recover(u *uop) {
	c.Stats.Mispredicts++
	c.Stats.RecoveryCycles += c.cycle - u.dispatchCycle
	// Walk the copy group's pair ring: every member's mispred flag is
	// cleared (the first resolver recovers for the whole group) and the
	// squash point is the group's youngest member.
	maxSeq := u.seq
	u.mispred = false
	for p := u.pair; p != nil && p != u; p = p.pair {
		p.mispred = false
		if p.seq > maxSeq {
			maxSeq = p.seq
		}
	}
	if c.cfg.IRBSquashReuse && c.reuse != nil {
		c.harvestSquashed(maxSeq)
	}
	// The LSQ only marks (its entries alias RUU entries); the RUU squash
	// recycles each killed uop into the free list.
	c.lsq.squashYoungerThan(maxSeq, nil)
	killed := c.ruu.squashYoungerThan(maxSeq, c.freeFn)
	c.Stats.Squashed += uint64(killed)
	if c.tracer != nil {
		c.tracer.Squash(c.cycle, killed)
	}
	c.rebuildRename()
	// Rebuild the ready set from the surviving window: the squashed
	// suffix's slots are free again. Survivors are older than every
	// squashed uop, so none of them was waiting on one.
	clear(c.ready)
	for i := 0; i < c.ruu.len(); i++ {
		if s := c.ruu.at(i); s.state == uWaiting && s.waitCount == 0 {
			c.ready[s.slot>>6] |= 1 << (s.slot & 63)
		}
	}
	if c.trb != nil {
		// Defensive: windows end at the block's control transfer, so
		// EnterSpec can only fire at a window's final instruction —
		// recording and serving are both past their last step by the
		// time recovery runs. Reset anyway so a future window shape
		// cannot leave a half-recorded or half-served walk behind.
		c.trbReset()
	}
	c.front.Squash()
	c.fetchPC = c.front.PC()
	c.fq.clear()
	c.fetchStopped = false
	c.curFetchBlock = ^uint64(0)
	if c.fetchStallUntil > c.cycle {
		// Abandon the in-flight wrong-path instruction fetch.
		c.fetchStallUntil = c.cycle
	}
}

// harvestSquashed implements squash reuse: completed wrong-path
// instructions about to be squashed are inserted into the IRB — their
// results are valid memoizations for their operand values regardless of
// path — so post-recovery re-execution can reuse them. Inserts go through
// normal write-port arbitration.
func (c *Core) harvestSquashed(maxSeq uint64) {
	for i := c.ruu.len() - 1; i >= 0; i-- {
		u := c.ruu.at(i)
		if u.seq <= maxSeq {
			return
		}
		if u.dup || u.state != uDone || u.reuseHit || !irbReusable(u.rec.Instr) {
			continue
		}
		e := irbEntryFor(&u.rec)
		e.Ver1, e.Ver2 = u.ver1, u.ver2
		c.reuse.Insert(c.cycle, u.rec.PC, e)
	}
}

// rebuildRename reconstructs the rename tables from the surviving RUU
// contents after a squash, restoring the producer mapping that existed
// when the recovering branch dispatched.
func (c *Core) rebuildRename() {
	clear(c.prodP[:])
	clear(c.prodD[:])
	for i := 0; i < c.ruu.len(); i++ {
		u := c.ruu.at(i)
		in := u.rec.Instr
		if !in.Op.Info().HasDest || in.Dest == isa.ZeroReg {
			continue
		}
		if !u.dup {
			c.prodP[in.Dest] = prodRef{u, u.gen}
		} else if c.caps.IndependentDataflow {
			if in.Op.Info().IsLoad {
				c.prodD[in.Dest] = prodRef{u.pair, u.pair.gen}
			} else {
				c.prodD[in.Dest] = prodRef{u, u.gen}
			}
		}
	}
}

// ---------------------------------------------------------------- commit

//lint:hotpath
func (c *Core) commit() {
	need := c.streams
	for slots := c.cfg.CommitWidth; slots >= need && c.ruu.len() >= need; slots -= need {
		head := c.ruu.at(0)
		if head.state != uDone {
			return
		}
		if head.wrongPath {
			//nopanic:invariant squash removes wrong-path uops before they reach commit
			panic("core: wrong-path uop at commit")
		}
		// The whole copy group must be done; dispatch allocates groups
		// atomically and squashes kill whole groups, so the members sit
		// at consecutive sequence numbers behind the head.
		var dupU *uop // first shadow copy, for pair modes and recoverFault
		for s := 1; s < need; s++ {
			u := c.ruu.at(s)
			if u.state != uDone {
				return
			}
			if u.seq != head.seq+uint64(s) {
				//nopanic:invariant dispatch allocates copy groups atomically
				panic("core: unpaired uops at commit")
			}
			if s == 1 {
				dupU = u
			}
		}
		switch {
		case c.caps.Compare == CompareVote:
			// Majority vote: a lone dissenter is outvoted and the
			// group retires without any rewind; only a split with no
			// majority falls back to flush-and-re-execute.
			if !c.voteCheck(head, need) {
				return
			}
		case need == 2:
			// Check & retire: compare the two copies' outcome
			// signatures. A mismatch means a transient fault was
			// caught; recovery flushes the pair and everything
			// younger and re-executes from the faulting PC — no
			// stream is trusted over the other, and nothing retires
			// until a re-execution passes the check.
			if head.outSig != dupU.outSig {
				c.Stats.FaultsDetected++
				c.recoverFault(head, dupU)
				return
			}
			c.accountFaultOutcome(head, dupU)
		case c.replay != nil:
			// REPLAY commits unchecked at SIE speed; the epoch's
			// replay comparison below is the (deferred) check.
			c.replayObserve(head)
		case c.inj != nil:
			// SIE has no check: classify what an injected fault did
			// to the single stream so campaigns can count escapes.
			c.accountFaultOutcome(head, nil)
		}
		c.retire(head, dupU)
		// Retired copies return to the free list; any rename-table slot
		// still naming them goes stale via the generation bump.
		for s := 0; s < need; s++ {
			c.freeUop(c.ruu.popHead())
		}
		if c.done {
			c.replayFinalCheck()
			return
		}
		if c.replayCheckDue() {
			c.replayEpochCheck()
			return
		}
	}
}

// voteCheck runs TMR's commit-time majority vote over the copy group's
// outcome signatures. It returns false when no majority exists — the group
// was flushed for re-execution — and true when the group may retire,
// having classified any disagreement against the architected record:
// a majority equal to the true signature outvoted (corrected) the faulty
// copies; a majority differing from it means corruption won the vote and
// escaped. The latter needs a common-mode multi-copy strike, which the
// paper's single-fault model excludes, but the oracle classification keeps
// custom injectors honest.
func (c *Core) voteCheck(head *uop, n int) bool {
	var sigs [maxVoteWidth]uint64
	corrupted := false
	for s := 0; s < n; s++ {
		u := c.ruu.at(s)
		sigs[s] = u.outSig
		corrupted = corrupted || u.corrupted
	}
	best, bestCnt := sigs[0], 0
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if sigs[j] == sigs[i] {
				cnt++
			}
		}
		if cnt > bestCnt {
			best, bestCnt = sigs[i], cnt
		}
	}
	switch {
	case bestCnt == n:
		// Unanimous: either clean, or every copy corrupted identically.
		if corrupted {
			if best == outSignature(&head.rec, head.rec.Src1, head.rec.Src2) {
				c.Stats.FaultsMasked++
			} else {
				c.Stats.FaultsSilent++
			}
		}
	case bestCnt > n/2:
		c.Stats.FaultsDetected++
		if best == outSignature(&head.rec, head.rec.Src1, head.rec.Src2) {
			c.Stats.FaultsCorrected++
		} else {
			c.Stats.FaultsSilent++
		}
	default:
		c.Stats.FaultsDetected++
		c.recoverFault(head, c.ruu.at(1))
		return false
	}
	return true
}

// retire performs the architected side effects of one instruction: branch
// predictor training, the single memory access of a store, IRB update, and
// program completion.
func (c *Core) retire(u, dupU *uop) {
	rec := &u.rec
	oi := rec.Instr.Op.Info()
	c.Stats.Committed++
	c.Stats.CopiesCommitted += uint64(c.streams)
	c.lastCommitCycle = c.cycle

	// A successful commit ends any fault-recovery bookkeeping for this
	// instruction: the repair window closes (commits are in order, so the
	// first commit at or past the faulting Seq is the repaired one) and
	// the PC's consecutive-retry count resets.
	if c.repairOpen && rec.Seq >= c.repairSeq {
		c.repairOpen = false
		c.Stats.FaultRepairs++
		c.Stats.FaultRecoveryCycles += c.cycle - c.repairDetect
	}
	if len(c.faultRetries) > 0 {
		delete(c.faultRetries, rec.PC)
	}

	if u.memAccess {
		if c.lsq.len() == 0 || c.lsq.at(0) != u {
			//nopanic:invariant LSQ entries retire in the same order the RUU allocated them
			panic("core: LSQ head mismatch at commit")
		}
		c.lsq.popHead()
	}
	switch {
	case oi.IsStore:
		c.Stats.Stores++
		c.mem.AccessD(rec.Addr, true)
	case oi.IsLoad:
		c.Stats.Loads++
	case oi.IsCtrl():
		c.pred.Update(rec.PC, rec.Instr, rec.Taken, rec.NextPC, u.predNext)
	}

	// IRB update at commit, off the critical path: pairs that did not
	// reuse refresh the buffer so the next occurrence can.
	if c.reuse != nil && irbReusable(rec.Instr) {
		reused := u.reuseHit || (dupU != nil && dupU.reuseHit)
		if !reused {
			e := irbEntryFor(rec)
			e.Ver1, e.Ver2 = u.ver1, u.ver2
			if c.reuse.Insert(c.cycle, rec.PC, e) && c.inj != nil {
				c.inj.AfterIRBInsert(rec.PC, c.reuse)
			}
		}
	}

	if c.tracer != nil {
		c.tracer.Commit(c.cycle, u.seq, rec)
	}
	if c.OnCommit != nil {
		c.OnCommit(rec)
	}
	if rec.Halt || (c.cfg.MaxInsns > 0 && c.Stats.Committed >= c.cfg.MaxInsns) {
		c.done = true
		c.Stats.Cycles = c.cycle
	}
}
