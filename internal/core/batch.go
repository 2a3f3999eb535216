package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/irb"
)

// BatchableInjector is the capability a fault injector needs to ride in a
// batch lane: beyond corrupting values it must expose how many faults it
// has applied (the batch's divergence detector), be restorable to its
// freshly-constructed state (so a diverged lane can re-run scalar and
// reproduce the exact campaign a fresh run would), and say how far ahead
// it is quiet (so the batch need not offer it every opportunity).
type BatchableInjector interface {
	FaultInjector
	// InjectedCount reports the number of faults applied so far. It must
	// increase exactly when an injection method fires, whether or not the
	// fired strike changed an observable value.
	InjectedCount() uint64
	// Reset restores the injector to its freshly-constructed state:
	// reseeded PRNG, cleared strike bookkeeping, zero injected count.
	Reset()
	// QuietFU advances the injector past up to n upcoming FUResult
	// opportunities at which it would neither change a value nor fire,
	// whatever their arguments, leaving the state that many FUResult
	// calls would leave, and returns how many it passed. It stops before
	// an opportunity at which the injector may fire, so fewer than n
	// means the next one must be offered for real; 0 is always a correct
	// answer. Opportunities of one kind must not affect the injector's
	// decisions at another kind: the batch counts and skips each kind on
	// its own.
	QuietFU(n uint64) uint64
	// QuietOperand is QuietFU for Operand opportunities.
	QuietOperand(n uint64) uint64
	// QuietIRBInsert is QuietFU for AfterIRBInsert opportunities.
	QuietIRBInsert(n uint64) uint64
}

// Injection opportunity kinds, the index of BatchSim's per-kind schedule.
const (
	oppFU = iota
	oppOperand
	oppIRBInsert
	oppKinds
)

// quietWindow is how many opportunities of one kind a lane is advanced
// past at once when it is armed: large enough that a quiet lane is probed
// for real once in tens of thousands of opportunities. Once the run has
// committed instructions and has an instruction limit, a re-armed lane is
// advanced no further than the opportunities the rest of the run is
// expected to offer (see FUResult), so the scan it draws past the run's
// end stays short however long the window.
const quietWindow = 1 << 16

// notDue marks a lane that is never probed again: fault-free or evicted.
const notDue = math.MaxUint64

// BatchSim steps K same-shape simulation cells in lockstep through one
// core. The cells must agree on everything but their fault injector —
// configuration, workload, options — so their fault-free trajectories are
// the *same* trajectory, and the expensive per-cell state (register file,
// scoreboard, IRB occupancy, uop arena, event heap, per-stream commit
// state) collapses into one shared copy stepped once. What remains
// per-lane is laid out struct-of-arrays below: the injector, its last
// observed fire count, the diverged flag, the strike point and, per
// opportunity kind, the next opportunity at which it must be probed.
//
// BatchSim installs itself as the leader core's FaultInjector and passes
// the leader's clean values through unchanged. Until a lane's injector
// first fires, the lane's hypothetical scalar run is bit-identical to the
// leader's — the injector returns every value untouched, so it steers
// nothing — and therefore the calls the lane's injector would see in its
// own scalar run are the opportunities the leader meets here. The batch
// does not make every one of those calls. It counts the opportunities of
// each kind (FU result, operand capture, IRB insert) and keeps, per lane
// and kind, the index of the next opportunity that is due: the lane's
// Quiet call has already advanced its injector past the ones before it,
// leaving exactly the state those calls would have left. An opportunity
// before the earliest due over all lanes costs one increment and one
// compare; at a due one, only the due lanes are probed for real, and a
// lane that does not fire there is re-armed by another Quiet call.
//
// A lane whose injector fires (a changed return value or a bumped
// InjectedCount) has just diverged from the shared trajectory; it is
// evicted from the batch on the spot and re-run scalar by the caller,
// its injector Reset first. Eviction is how per-lane early-exit works: a
// diverging lane retires from the batch without stalling its siblings. A
// lane whose injector never fires is served the leader's results and
// statistics, bit for bit. Its injector may have drawn past the run's
// last opportunity, so unlike a scalar run's injector it must be Reset
// before it steers another run (the runner resets before every attempt).
//
// The last lane rides the leader. Once a single injector lane is left and
// no fault-free lane needs the clean trajectory, nothing else consumes the
// leader's run, so the lane stops being a probe and becomes the leader's
// own injector: at its due opportunities it sees the live values and the
// real IRB, and its fires are applied instead of evicting it. Up to that
// point its scalar run was the leader's (it had not fired), and from then
// on the leader makes exactly the calls its scalar run makes, less the
// quiet ones the Quiet contract lets it skip, so the leader's run is the
// lane's scalar run and the lane is served its result. No batch drains:
// the leader's work is never thrown away.
//
// The IRB-array site needs one extra guard: a probing lane must not
// corrupt the leader's real reuse buffer, so its AfterIRBInsert probes run
// against a scratch IRB of the same geometry. Corruption calls on it are
// harmless no-ops (the probed PC was never inserted there), the injector's
// PRNG draws are identical either way, and the fire is detected through
// InjectedCount.
type BatchSim struct {
	c       *Core
	scratch *irb.IRB // AfterIRBInsert probe target; nil when the mode has no IRB

	// Per-lane state, struct-of-arrays. inj[i] == nil marks a fault-free
	// lane: it never diverges and is served the leader's result.
	inj      []BatchableInjector
	injected []uint64 // last observed InjectedCount per lane
	diverged []bool
	struck   []uint64 // leader seq at divergence (0: IRB array or wrong path)

	// The due-opportunity schedule, per opportunity kind: seen counts the
	// opportunities offered so far, due[k][i] is the index of the next
	// one at which lane i is probed for real (notDue once the lane is
	// fault-free or evicted), and next[k] is the least due[k] over all
	// lanes.
	seen [oppKinds]uint64
	due  [oppKinds][]uint64
	next [oppKinds]uint64

	active    int // injector lanes not yet diverged
	faultFree int // lanes with no injector; they keep the leader clean
}

// NewBatchSim builds a batch over the given core, one lane per injector
// (nil entries are fault-free lanes), resets and arms every injector and
// installs the batch as the core's fault injector. The injectors must be
// distinct objects — one injector in two lanes would be advanced twice
// per opportunity and observe a call sequence no scalar run produces.
// Call before Core.Run; the core must not carry an injector of its own.
func NewBatchSim(c *Core, lanes []FaultInjector) (*BatchSim, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one lane")
	}
	if c.inj != nil {
		return nil, fmt.Errorf("core: batch leader already has an injector")
	}
	b := &BatchSim{
		c:        c,
		inj:      make([]BatchableInjector, len(lanes)),
		injected: make([]uint64, len(lanes)),
		diverged: make([]bool, len(lanes)),
		struck:   make([]uint64, len(lanes)),
	}
	dues := make([]uint64, oppKinds*len(lanes))
	for k := range b.due {
		b.due[k] = dues[k*len(lanes) : (k+1)*len(lanes)]
		b.next[k] = notDue
	}
	for i, inj := range lanes {
		if inj == nil {
			b.faultFree++
			for k := range b.due {
				b.due[k][i] = notDue
			}
			continue
		}
		bi, ok := inj.(BatchableInjector)
		if !ok {
			return nil, fmt.Errorf("core: lane %d injector %T is not batchable (no InjectedCount/Reset/Quiet)", i, inj)
		}
		bi.Reset()
		b.inj[i] = bi
		b.injected[i] = bi.InjectedCount()
		b.due[oppFU][i] = bi.QuietFU(quietWindow)
		b.due[oppOperand][i] = bi.QuietOperand(quietWindow)
		b.due[oppIRBInsert][i] = bi.QuietIRBInsert(quietWindow)
		for k := range b.due {
			b.next[k] = min(b.next[k], b.due[k][i])
		}
		b.active++
	}
	if c.reuse != nil {
		scr, err := irb.New(c.cfg.IRB)
		if err != nil {
			return nil, err
		}
		b.scratch = scr
	}
	c.SetInjector(b)
	return b, nil
}

// Lanes returns the number of lanes in the batch.
func (b *BatchSim) Lanes() int { return len(b.inj) }

// Active returns the number of injector lanes that have not diverged.
func (b *BatchSim) Active() int { return b.active }

// Diverged reports whether lane i has left the batch, and if so the
// architected sequence number of the leader instruction whose injection
// opportunity fired (0 when the strike hit the IRB array or a wrong-path
// copy, which carry no architected sequence).
func (b *BatchSim) Diverged(i int) (seq uint64, diverged bool) {
	return b.struck[i], b.diverged[i]
}

// evict retires lane i from the batch at the opportunity that fired and
// takes it off every kind's schedule. When it leaves a single injector
// lane and the batch has no fault-free lane, that lane rides the leader
// from its next due opportunity on (see BatchSim).
func (b *BatchSim) evict(i int, seq uint64) {
	b.diverged[i] = true
	b.struck[i] = seq
	for k := range b.due {
		b.due[k][i] = notDue
	}
	b.active--
}

// FUResult implements FaultInjector for the batch leader. At a due
// opportunity each due lane's injector is probed with the leader's
// signature. A probing lane's result is discarded: a changed value or a
// bumped fire count means the lane's scalar run would differ from the
// shared trajectory from this opportunity on, so the lane is evicted,
// and otherwise it is re-armed past the quiet opportunities that follow.
// The riding lane's result is the leader's: its strikes are applied.
//
// A lane is re-armed for quietWindow opportunities, or for fewer when the
// run is nearly done: the n opportunities seen so far, per instruction
// committed, times the instructions left to MaxInsns, plus a quarter and
// 1024 to spare. The window only bounds a scan (a lane that reaches it is
// probed and re-armed), so any estimate leaves every result unchanged.
//
//lint:hotpath
func (b *BatchSim) FUResult(seq, pc uint64, dup bool, sig uint64) uint64 {
	n := b.seen[oppFU]
	b.seen[oppFU]++
	if n < b.next[oppFU] {
		return sig
	}
	w := uint64(quietWindow)
	if done, limit := b.c.Stats.Committed, b.c.cfg.MaxInsns; done > 0 && limit >= done {
		if hi, lo := bits.Mul64(n, limit-done); hi == 0 {
			est := min(lo/done, quietWindow)
			w = min(w, est+est/4+1024)
		}
	}
	out := sig
	next := uint64(notDue)
	for i, d := range b.due[oppFU] {
		if d == n {
			inj := b.inj[i]
			v := inj.FUResult(seq, pc, dup, sig)
			if b.active == 1 && b.faultFree == 0 {
				out = v // riding: the leader's run is this lane's
			} else if v != sig || inj.InjectedCount() != b.injected[i] {
				b.evict(i, seq)
				continue
			}
			d = n + 1 + inj.QuietFU(w)
			b.due[oppFU][i] = d
		}
		next = min(next, d)
	}
	b.next[oppFU] = next
	return out
}

// Operand implements FaultInjector; see FUResult.
//
//lint:hotpath
func (b *BatchSim) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 {
	n := b.seen[oppOperand]
	b.seen[oppOperand]++
	if n < b.next[oppOperand] {
		return val
	}
	w := uint64(quietWindow)
	if done, limit := b.c.Stats.Committed, b.c.cfg.MaxInsns; done > 0 && limit >= done {
		if hi, lo := bits.Mul64(n, limit-done); hi == 0 {
			est := min(lo/done, quietWindow)
			w = min(w, est+est/4+1024)
		}
	}
	out := val
	next := uint64(notDue)
	for i, d := range b.due[oppOperand] {
		if d == n {
			inj := b.inj[i]
			v := inj.Operand(seq, pc, dup, which, val)
			if b.active == 1 && b.faultFree == 0 {
				out = v // riding: the leader's run is this lane's
			} else if v != val || inj.InjectedCount() != b.injected[i] {
				b.evict(i, seq)
				continue
			}
			d = n + 1 + inj.QuietOperand(w)
			b.due[oppOperand][i] = d
		}
		next = min(next, d)
	}
	b.next[oppOperand] = next
	return out
}

// AfterIRBInsert implements FaultInjector; see FUResult. A probing lane
// is probed against the scratch IRB — never the leader's live buffer — so
// a firing strike corrupts nothing shared; it is observed through the
// fire count alone and evicts the lane like any other divergence. The
// riding lane strikes the live buffer, as in its scalar run.
//
//lint:hotpath
func (b *BatchSim) AfterIRBInsert(pc uint64, live *irb.IRB) {
	n := b.seen[oppIRBInsert]
	b.seen[oppIRBInsert]++
	if n < b.next[oppIRBInsert] {
		return
	}
	w := uint64(quietWindow)
	if done, limit := b.c.Stats.Committed, b.c.cfg.MaxInsns; done > 0 && limit >= done {
		if hi, lo := bits.Mul64(n, limit-done); hi == 0 {
			est := min(lo/done, quietWindow)
			w = min(w, est+est/4+1024)
		}
	}
	next := uint64(notDue)
	for i, d := range b.due[oppIRBInsert] {
		if d == n {
			inj := b.inj[i]
			if b.active == 1 && b.faultFree == 0 {
				inj.AfterIRBInsert(pc, live) // riding
			} else {
				inj.AfterIRBInsert(pc, b.scratch)
				if inj.InjectedCount() != b.injected[i] {
					b.evict(i, 0)
					continue
				}
			}
			d = n + 1 + inj.QuietIRBInsert(w)
			b.due[oppIRBInsert][i] = d
		}
		next = min(next, d)
	}
	b.next[oppIRBInsert] = next
}
