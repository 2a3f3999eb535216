package core

import (
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/isa"
)

// uopState tracks a uop through the pipeline.
type uopState uint8

const (
	uWaiting  uopState = iota // in the issue window, operands may be pending
	uIssued                   // executing on a functional unit
	uDone                     // result available; eligible to commit
	uSquashed                 // killed by recovery; slot already reclaimed
)

// uop is one in-flight instruction copy. In DIE modes every architected
// instruction dispatches as a pair of uops (primary and duplicate) sharing
// one fsim.Retired record, held in Core.recs at the primary's RUU slot;
// the pair is compared at commit.
//
// uops are recycled through the core's free list rather than allocated per
// instruction. gen counts recyclings: every reference that can outlive the
// uop (completion events, consumer links, rename table slots) carries the
// gen it was created under and is dropped when the counts no longer match.
// The ready set and the per-slot select state need no such tag: they name
// RUU slots, a slot's ready bit is cleared before its uop can leave the
// window, and dispatch rewrites the slot's state for the next occupant.
type uop struct {
	seq  uint64 // global dispatch order
	gen  uint32 // recycling generation (bumped on free)
	slot int    // RUU buffer index, recorded at dispatch (ready-set bit)
	rec  *fsim.Retired
	dup  bool
	pair *uop // other member of the DIE pair (nil in SIE)

	wrongPath bool
	state     uopState

	// Dataflow. waitCount is the number of pending producers; the
	// earliest cycle the uop can be selected once it is zero is kept per
	// RUU slot (Core.readyAt).
	waitCount int
	consumers []consumerLink

	dispatchCycle uint64
	fetchCycle    uint64
	completeCycle uint64

	// Control flow.
	predNext uint64
	mispred  bool // correct-path control with predNext != rec.NextPC

	// IRB (DIE-IRB mode).
	irbPCHit  bool
	irbEntry  irb.Entry
	irbReady  uint64 // cycle the pipelined lookup data arrives
	irbTested bool
	reuseHit  bool

	// TRB (DIE-TRB mode): this duplicate copy was served a recorded
	// window signature at dispatch and never executes; trbEntry is the
	// window's entry PC, kept for scrub-on-fault (see recoverFault).
	trbServed bool
	trbEntry  uint64

	// Memory. Only the primary copy of a load/store occupies the LSQ and
	// accesses the cache; the duplicate performs address calculation
	// only (the paper keeps memory outside the Sphere of Replication).
	memAccess  bool // occupies an LSQ slot
	addrReady  bool // address calculation completed
	memStarted bool // load: cache access / forwarding has begun

	// Register write-versions of the sources at dispatch, for the
	// name-based reuse test.
	ver1, ver2 uint32

	// Fault-check signatures: the operand values this copy "read" and
	// the outcome it "produced". They equal the record's values unless a
	// fault injector corrupted them.
	src1c, src2c uint64
	outSig       uint64
	corrupted    bool // an injector touched this copy (accounting only)
}

// consumerLink records one waiting consumer and the generation it was
// wired under; a consumer that was squashed and recycled before its
// producer completed is recognized by the mismatch and skipped.
type consumerLink struct {
	u   *uop
	gen uint32
}

// prodRef is a rename-table slot: the latest producer of a register plus
// the generation it had when installed, so a producer that committed (or
// was squashed) and got recycled reads as absent.
type prodRef struct {
	u   *uop
	gen uint32
}

// live reports whether the slot still refers to the uop it was set to.
func (p prodRef) live() bool { return p.u != nil && p.u.gen == p.gen }

// outSignature computes the canonical outcome signature of an instruction
// copy from its (possibly corrupted) operand values: ALU result for value-
// producing ops, effective address for memory ops, and target/direction for
// control transfers. The DIE commit check compares the two copies'
// signatures.
func outSignature(rec *fsim.Retired, src1, src2 uint64) uint64 {
	in := rec.Instr
	oi := in.Op.Info()
	switch {
	case oi.IsStore:
		// Fold the store data into the signature so a corrupted data
		// operand is caught, not just a corrupted address.
		return sigMix(isa.EffAddr(src1, in.Imm), src2)
	case oi.IsLoad:
		return isa.EffAddr(src1, in.Imm)
	case oi.IsBranch:
		next := rec.PC + 1
		taken := isa.EvalBranch(in.Op, src1, src2)
		if taken {
			next = isa.CtrlTarget(in.Op, in.Imm, src1, rec.PC)
		}
		return next*2 + b2u64(taken)
	case oi.IsJump:
		return isa.CtrlTarget(in.Op, in.Imm, src1, rec.PC) * 2
	case oi.HasDest:
		return isa.Exec(in.Op, src1, src2, in.Imm, rec.PC)
	default:
		return 0
	}
}

// irbOutSig converts a reuse-buffer entry into an outcome signature for the
// instruction class of rec, mirroring outSignature's encoding.
func irbOutSig(rec *fsim.Retired, e irb.Entry) uint64 {
	oi := rec.Instr.Op.Info()
	switch {
	case oi.IsCtrl():
		return e.Result*2 + b2u64(e.Taken)
	case oi.IsStore:
		// The reuse test verified the data operand (Src2); fold the
		// stored copy in so the signature matches outSignature's.
		return sigMix(e.Result, e.Src2)
	default:
		return e.Result
	}
}

// sigMix combines two 64-bit values into one signature word with a
// multiplicative hash; single-bit corruption of either input always
// changes the output.
func sigMix(a, b uint64) uint64 {
	return a ^ (b * 0x9e3779b97f4a7c15)
}

// irbEntryFor builds the reuse-buffer payload for a retiring instruction:
// operands plus result, with control transfers storing target and
// direction and memory operations storing the effective address.
func irbEntryFor(rec *fsim.Retired) irb.Entry {
	oi := rec.Instr.Op.Info()
	e := irb.Entry{Src1: rec.Src1, Src2: rec.Src2}
	switch {
	case oi.IsMem():
		e.Result = rec.Addr
	case oi.IsCtrl():
		e.Result = rec.NextPC
		e.Taken = rec.Taken
	default:
		e.Result = rec.Result
	}
	return e
}

// irbReusable reports whether the instruction class participates in
// instruction reuse: integer and FP ALU operations, branch target/direction
// calculation, and the address calculation of loads and stores. (The memory
// access itself is never reused — the paper keeps memory outside the Sphere
// of Replication.)
func irbReusable(in isa.Instr) bool {
	oi := in.Op.Info()
	if in.Op == isa.OpNop || in.Op == isa.OpHalt {
		return false
	}
	return oi.HasDest || oi.IsMem() || oi.IsCtrl()
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fuPool allocates functional units. Units are fully pipelined (new
// operation every cycle) except divide and square root, which occupy their
// unit for the full latency, matching SimpleScalar's issue latencies.
type fuPool struct {
	busyUntil [isa.NumFUClasses][]uint64
}

func newFUPool(counts [isa.NumFUClasses]int) *fuPool {
	p := &fuPool{}
	for cl := isa.FUClass(0); cl < isa.NumFUClasses; cl++ {
		p.busyUntil[cl] = make([]uint64, counts[cl])
	}
	return p
}

// occupancy returns how many cycles an operation keeps its unit busy.
func occupancy(op isa.Op) int {
	switch op {
	case isa.OpDiv, isa.OpRem, isa.OpDivu, isa.OpFDiv, isa.OpFSqrt:
		return op.Info().Latency
	default:
		return 1
	}
}

// alloc reserves a unit of class cl starting at cycle for occ cycles; it
// reports whether one was free.
func (p *fuPool) alloc(cl isa.FUClass, cycle uint64, occ int) bool {
	for i, b := range p.busyUntil[cl] {
		if b <= cycle {
			p.busyUntil[cl][i] = cycle + uint64(occ)
			return true
		}
	}
	return false
}

// event is a scheduled pipeline completion. gen snapshots the uop's
// recycling generation at scheduling time: a popped event whose gen no
// longer matches the uop's refers to a slot that was squashed and reissued
// and is dropped.
type event struct {
	cycle uint64
	kind  eventKind
	u     *uop
	gen   uint32
}

type eventKind uint8

const (
	evExecDone eventKind = iota // FU execution finished: complete + wake
	evAddrDone                  // memory address calculation finished
	evLoadDone                  // memory access finished: complete + wake
	evTRBDone                   // TRB-served duplicate: recorded signature delivered
)

// eventQueue is a min-heap of events by cycle, hand-specialized so push
// and pop move concrete event values instead of boxing them through
// container/heap's interface (whose Pop allocates on every call). The sift
// loops mirror container/heap's up/down exactly, so the pop order among
// equal-cycle events — which completion order, and therefore wakeup order,
// depends on — is unchanged.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	*q = h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[i].cycle <= h[j].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].cycle < h[j].cycle {
			j = r
		}
		if h[i].cycle <= h[j].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	h[n] = event{}
	*q = h[:n]
	return e
}

func (q *eventQueue) schedule(cycle uint64, kind eventKind, u *uop) {
	q.push(event{cycle: cycle, kind: kind, u: u, gen: u.gen})
}

// throw reports a broken FIFO occupancy invariant. It is outlined and
// kept out of the inliner so the panic's message conversion never lands
// inside a pipeline stage that inlined a push or pop — the hotalloc
// escape-analysis gate sees those stages allocation-free.
//
//go:noinline
func throw(msg string) {
	//nopanic:invariant callers guard occupancy before push/pop; reaching here is a scheduling bug
	panic(msg)
}

// ring is a bounded FIFO of uops used for the RUU and the LSQ. Entries
// retire from the head and are squashed from the tail.
type ring struct {
	buf        []*uop
	head, size int
}

func newRing(capacity int) *ring { return &ring{buf: make([]*uop, capacity)} }

func (r *ring) len() int  { return r.size }
func (r *ring) cap() int  { return len(r.buf) }
func (r *ring) free() int { return len(r.buf) - r.size }

// idx maps a logical position (0 = head) to a buffer index. The wrap is a
// compare-and-subtract instead of the modulo division that dominated the
// issue-scan profile.
func (r *ring) idx(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// push appends u at the tail and returns the buffer index it occupies
// until it retires or is squashed.
func (r *ring) push(u *uop) int {
	if r.size == len(r.buf) {
		throw("core: ring overflow")
	}
	i := r.idx(r.size)
	r.buf[i] = u
	r.size++
	return i
}

func (r *ring) at(i int) *uop { return r.buf[r.idx(i)] }

func (r *ring) popHead() *uop {
	if r.size == 0 {
		throw("core: ring underflow")
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.size--
	return u
}

// squashYoungerThan removes all entries with seq greater than maxSeq,
// marking them squashed, and returns how many were removed. When free is
// non-nil every removed uop is recycled through it; the LSQ passes nil
// because its entries alias the RUU's, which owns the recycling.
func (r *ring) squashYoungerThan(maxSeq uint64, free func(*uop)) int {
	n := 0
	for r.size > 0 {
		i := r.idx(r.size - 1)
		u := r.buf[i]
		if u.seq <= maxSeq {
			break
		}
		u.state = uSquashed
		r.buf[i] = nil
		r.size--
		n++
		if free != nil {
			free(u)
		}
	}
	return n
}

// fetchQueue is the bounded fetch-to-dispatch FIFO. Its backing array is
// allocated once and reused; the previous slice-append queue reallocated
// on every refill after the slice-off-the-front drain emptied it.
type fetchQueue struct {
	buf        []fetchEntry
	head, size int
}

func newFetchQueue(capacity int) *fetchQueue {
	return &fetchQueue{buf: make([]fetchEntry, capacity)}
}

func (q *fetchQueue) len() int   { return q.size }
func (q *fetchQueue) full() bool { return q.size == len(q.buf) }

func (q *fetchQueue) push(e fetchEntry) {
	if q.size == len(q.buf) {
		throw("core: fetch queue overflow")
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = e
	q.size++
}

// front returns the oldest entry in place; the caller copies what it needs
// before popFront.
func (q *fetchQueue) front() *fetchEntry {
	if q.size == 0 {
		throw("core: fetch queue underflow")
	}
	return &q.buf[q.head]
}

func (q *fetchQueue) popFront() {
	if q.size == 0 {
		throw("core: fetch queue underflow")
	}
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
}

func (q *fetchQueue) clear() { q.head, q.size = 0, 0 }
