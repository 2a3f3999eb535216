package core

import (
	"fmt"

	"repro/internal/fsim"
)

// DefaultFaultRetryLimit bounds how many consecutive times one static PC
// may fail the commit-time check and be re-executed before the core gives
// up. A transient fault needs exactly one retry; a handful of consecutive
// failures at the same PC means the fault is not transient — a stuck-at in
// a functional unit or an uncorrected storage error — and re-executing
// forever would livelock the run.
const DefaultFaultRetryLimit = 8

// UnrecoverableFaultError reports that the bounded retry budget for one
// static PC was exhausted: the commit-time check kept failing across
// FaultRetryLimit consecutive re-executions, so the fault is persistent and
// instruction-level temporal redundancy cannot mask it. The simulation
// driver surfaces it through sim.RunContext; campaign harnesses treat it as
// a per-cell outcome, not a crash.
type UnrecoverableFaultError struct {
	Bench   string // workload name (filled in by the sim driver)
	Config  string // configuration display name (filled in by the sim driver)
	PC      uint64 // static PC whose pair kept mismatching
	Seq     uint64 // architected sequence number of the stuck instruction
	Retries int    // re-executions attempted before giving up
	Cycle   uint64
}

func (e *UnrecoverableFaultError) Error() string {
	where := ""
	if e.Bench != "" || e.Config != "" {
		where = fmt.Sprintf("%s on %s: ", e.Bench, e.Config)
	}
	return fmt.Sprintf("core: %sunrecoverable fault at pc %d (seq %d): signature mismatch persisted through %d re-executions (cycle %d)",
		where, e.PC, e.Seq, e.Retries, e.Cycle)
}

// recoverFault performs the architectural rewind for a commit-time pair
// mismatch, reusing the branch-misprediction squash machinery: every uop at
// and younger than the faulting pair is flushed, the flushed correct-path
// records are pushed back onto the dispatch front for replay, and fetch is
// redirected to the faulting PC. The pair then re-executes from scratch —
// refetch, re-dispatch, re-issue, fresh functional-unit executions — and is
// re-checked at its next commit. Faults are transient datapath events (the
// architected values always come from the functional front), so a clean
// re-execution produces agreeing signatures and the run proceeds.
//
// Two guards keep a non-transient fault from looping forever. A mismatch
// whose wrong value was supplied by an IRB reuse hit invalidates that IRB
// entry (scrubbing): re-execution would otherwise hit the same corrupted
// entry again, deterministically, on every retry. And consecutive
// recoveries at one static PC are bounded by FaultRetryLimit; exhausting
// the budget aborts the run with an UnrecoverableFaultError.
func (c *Core) recoverFault(head, dupU *uop) {
	pc := head.rec.PC
	trueSig := outSignature(head.rec, head.rec.Src1, head.rec.Src2)

	// Scrub: the copy whose signature disagrees with the architected
	// record is the corrupted one; if its value came from the reuse
	// buffer, the stored entry is bad and must not serve another hit.
	for _, u := range [2]*uop{head, dupU} {
		if u.reuseHit && u.outSig != trueSig && c.reuse.Invalidate(pc) {
			c.Stats.IRBScrubs++
		}
		// TRB-stored signatures are recomputed from architecturally
		// committed records, so a served copy disagreeing with the true
		// signature means the stored window itself is corrupted (storage
		// fault): scrub it exactly like a bad IRB entry.
		if u.trbServed && u.outSig != trueSig && c.trb.buf.Invalidate(u.trbEntry) {
			c.Stats.TRBScrubs++
		}
	}

	// Bounded retries per static PC, reset on successful commit (see
	// retire). The first detection at a PC starts re-execution #1; once
	// the budget is exhausted the next detection escalates.
	if c.faultRetries == nil {
		c.faultRetries = make(map[uint64]uint32)
	}
	retries := c.faultRetries[pc] + 1
	limit := c.cfg.FaultRetryLimit
	if limit == 0 {
		limit = DefaultFaultRetryLimit
	}
	if int(retries) > limit {
		c.Abort(&UnrecoverableFaultError{PC: pc, Seq: head.rec.Seq, Retries: limit, Cycle: c.cycle})
		return
	}
	c.faultRetries[pc] = retries
	if retries > 1 {
		c.Stats.FaultRetries++
	}
	c.Stats.FaultRecoveries++

	// MTTR window: opened at the first detection of this architected
	// instruction, closed when it finally commits (see retire). Commits
	// are in order, so a window can only re-fault on the same Seq — the
	// original detection cycle is kept.
	if !c.repairOpen {
		c.repairOpen = true
		c.repairDetect = c.cycle
		c.repairSeq = head.rec.Seq
	}

	// Architectural rewind: hand every in-flight correct-path record
	// (the faulting pair's first) back to the front for replay, then
	// flush the pipeline exactly as a branch recovery would — except the
	// squash point is *before* the pair, so the pair itself dies too.
	recs := make([]fsim.Retired, 0, c.ruu.len()/2+1)
	for i := 0; i < c.ruu.len(); i++ {
		if u := c.ruu.at(i); !u.dup && !u.wrongPath {
			recs = append(recs, *u.rec)
		}
	}
	c.front.Rewind(recs)
	maxSeq := head.seq - 1
	c.lsq.squashYoungerThan(maxSeq, nil)
	killed := c.ruu.squashYoungerThan(maxSeq, c.freeFn)
	c.Stats.Squashed += uint64(killed)
	if c.tracer != nil {
		c.tracer.Squash(c.cycle, killed)
	}
	c.rebuildRename()
	clear(c.ready) // the flush emptied the RUU
	c.fetchPC = pc
	c.fq.clear()
	c.fetchStopped = false
	c.curFetchBlock = ^uint64(0)
	if c.fetchStallUntil > c.cycle {
		c.fetchStallUntil = c.cycle
	}
	if c.trb != nil {
		// A fault recovery can land mid-window (any PC can fault);
		// abandon the in-flight recording or serving walk. trbBefore
		// also disengages for the whole rewind drain, so replayed
		// records never extend a pre-fault walk.
		c.trbReset()
	}
}

// accountFaultOutcome classifies a committing instruction whose copies'
// signatures agree: against the architected record's true signature, an
// injector-touched copy either left no trace (masked — e.g. a corrupted
// operand bit that did not change a branch outcome) or produced a wrong
// value that the check cannot see (a silent-data-corruption escape; in DIE
// modes that requires both copies corrupted identically, in SIE any
// surviving corruption escapes — there is no check at all).
func (c *Core) accountFaultOutcome(head *uop, dupU *uop) {
	if !head.corrupted && (dupU == nil || !dupU.corrupted) {
		return
	}
	if head.outSig == outSignature(head.rec, head.rec.Src1, head.rec.Src2) {
		c.Stats.FaultsMasked++
	} else {
		c.Stats.FaultsSilent++
	}
}
