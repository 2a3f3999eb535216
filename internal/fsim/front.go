package fsim

import "repro/internal/isa"

// Front is the dispatch-front execution engine of the timing core. On the
// correct path it steps the underlying Machine directly. After the core
// dispatches a mispredicted branch it calls EnterSpec, and subsequent
// wrong-path instructions execute against a copy-on-write overlay of the
// register file and memory; Squash discards the overlay when the branch
// resolves. This mirrors sim-outorder's speculative-mode execution: wrong-
// path instructions compute real (but doomed) values and therefore exercise
// functional units, issue ports and the IRB exactly like correct-path ones.
//
// Fault recovery adds a second mechanism, Rewind: the core hands back the
// records of in-flight correct-path instructions it is flushing, and
// StepCorrect replays them — in order, without touching the machine, whose
// architectural state already reflects them — before resuming normal
// stepping. Transient faults live in the timing core's duplicated
// signatures, never in architectural state, so a replayed record is exactly
// what a fault-free re-execution of that instruction would produce.
type Front struct {
	M *Machine

	// The wrong-path overlay: specRegs[r] holds register r's wrong-path
	// value when bit r of specLive is set, and the machine's register
	// holds it otherwise; specMem holds the wrong-path stores by address.
	spec     bool
	specLive uint64
	specRegs [isa.NumRegs]uint64
	specMem  map[uint64]uint64

	// rewind[rewindPos:] holds flushed correct-path records awaiting
	// re-dispatch, oldest first.
	rewind    []Retired
	rewindPos int
}

// specLive holds one bit per architected register; this constant stops
// the build if there are ever more than 64.
const _ uint = 64 - isa.NumRegs

// NewFront wraps m.
func NewFront(m *Machine) *Front {
	return &Front{M: m, specMem: make(map[uint64]uint64)}
}

// Spec reports whether the front is executing down a wrong path.
func (f *Front) Spec() bool { return f.spec }

// PC returns the correct-path PC (the next instruction StepCorrect would
// execute): the head of the rewind queue while a fault flush is being
// replayed, the machine's PC otherwise.
func (f *Front) PC() uint64 {
	if f.rewindPos < len(f.rewind) {
		return f.rewind[f.rewindPos].PC
	}
	return f.M.PC
}

// Halted reports whether correct-path execution has retired OpHalt. A
// machine that ran past a halt still in the rewind queue is not halted from
// the pipeline's point of view: the halt has yet to be re-dispatched.
func (f *Front) Halted() bool { return f.M.Halted && f.rewindPos >= len(f.rewind) }

// Rewinding reports how many flushed records await re-dispatch.
func (f *Front) Rewinding() int { return len(f.rewind) - f.rewindPos }

// Rewind pushes the records of flushed in-flight correct-path instructions
// (oldest first) back onto the front, so subsequent StepCorrect calls
// re-deliver them before the machine resumes stepping. Any wrong-path
// overlay is discarded: the rewind re-establishes the correct path at the
// oldest flushed instruction. The slice is copied, not retained. A second
// Rewind before the first drains prepends — its records are necessarily
// older than the remainder of the queue.
func (f *Front) Rewind(recs []Retired) {
	f.Squash()
	rest := f.rewind[f.rewindPos:]
	q := make([]Retired, 0, len(recs)+len(rest))
	q = append(append(q, recs...), rest...)
	f.rewind, f.rewindPos = q, 0
}

// throw reports a broken speculation-mode invariant. It is outlined and
// kept out of the inliner so the panic's message conversion never lands
// inside a core pipeline stage that inlined EnterSpec or a step — the
// hotalloc escape-analysis gate sees those stages allocation-free.
//
//go:noinline
func throw(msg string) {
	//nopanic:invariant the core brackets speculation with EnterSpec/Squash; reaching here is a sequencing bug
	panic(msg)
}

// StepCorrect executes the next correct-path instruction and writes its
// record to r. It must not be called while in speculative mode.
func (f *Front) StepCorrect(r *Retired) error {
	if f.spec {
		throw("fsim: StepCorrect during speculative mode")
	}
	if f.rewindPos < len(f.rewind) {
		*r = f.rewind[f.rewindPos]
		f.rewindPos++
		if f.rewindPos == len(f.rewind) {
			f.rewind, f.rewindPos = f.rewind[:0], 0
		}
		return nil
	}
	return f.M.Step(r)
}

// EnterSpec switches the front to wrong-path execution. The core calls it
// after dispatching a branch whose predicted next PC differs from the
// actual next PC; fetch then proceeds down the predicted (wrong) path.
func (f *Front) EnterSpec() {
	if f.spec {
		throw("fsim: nested EnterSpec")
	}
	f.spec = true
}

// Squash discards all wrong-path state and returns to the correct path.
// Squash on a non-speculating front is a no-op, matching the pipeline's
// recovery logic which squashes unconditionally.
func (f *Front) Squash() {
	f.spec = false
	f.specLive = 0
	clear(f.specMem)
}

// StepSpecAt executes the instruction at pc against the speculative
// overlay and writes its record to r. Unlike StepCorrect the caller
// chooses the PC: wrong-path fetch follows the branch predictor, not the
// computed next PC.
func (f *Front) StepSpecAt(pc uint64, r *Retired) {
	if !f.spec {
		throw("fsim: StepSpecAt outside speculative mode")
	}
	in := f.M.Prog.Fetch(pc)
	exec(r, in, pc, f.readSpec, specMemReader{f})
	if in.Op.Info().HasDest && in.Dest != isa.ZeroReg {
		f.specRegs[in.Dest] = r.Result
		f.specLive |= 1 << in.Dest
	}
	if in.Op.Info().IsStore {
		f.specMem[r.Addr] = r.Src2
	}
}

func (f *Front) readSpec(r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	if f.specLive&(1<<r) != 0 {
		return f.specRegs[r]
	}
	return f.M.Regs[r]
}

// specMemReader layers wrong-path stores over the machine's memory.
type specMemReader struct{ f *Front }

func (s specMemReader) Read(addr uint64) uint64 {
	if v, ok := s.f.specMem[addr]; ok {
		return v
	}
	return s.f.M.Mem.Read(addr)
}
