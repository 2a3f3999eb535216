package fsim

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/isa"
	"repro/internal/program"
)

// Trace is the recorded stream of one functional execution of a program,
// captured once and replayed many times. The record stream for a
// (program, instruction budget) pair is deterministic, so an experiment
// grid that runs the same benchmark on eight machine configurations can
// interpret it once and fan the flat read-only buffer out to every cell.
//
// A trace stores per instruction only what replay cannot cheaply
// recompute: the operand values and the result, 24 bytes against a full
// Retired record's 72. The rest of the record follows from those, the
// entry's position, the PC the entry before it left and the program; a
// Cursor rebuilds it.
//
// A Trace is immutable after Capture and safe for concurrent replay from
// any number of goroutines.
type Trace struct {
	prog  *program.Program
	recs  []entry
	halts bool // the recorded execution ended in OpHalt

	// image is the program's initial memory, built once by Capture and
	// never written again: replay machines map its pages copy-on-write
	// instead of re-installing the data segment.
	image *Memory

	preflightOnce sync.Once
	preflightErr  error
}

// entry is one traced instruction as stored: the fields of its Retired
// record that depend on run-time values. Branch direction is not stored;
// it is a function of the two operands.
type entry struct {
	Src1, Src2, Result uint64
}

// initialTraceCap bounds the first buffer allocation in Capture so a huge
// instruction budget on a program that halts early does not reserve
// gigabytes up front.
const initialTraceCap = 1 << 20

// Capture functionally executes prog from its entry point, recording up
// to maxInstrs instructions (fewer if the program halts first).
func Capture(prog *program.Program, maxInstrs uint64) (*Trace, error) {
	capHint := maxInstrs
	if capHint > initialTraceCap {
		capHint = initialTraceCap
	}
	t := &Trace{prog: prog, recs: make([]entry, 0, capHint)}
	m := New(prog)
	// New's memory becomes the read-only image; the capture machine runs
	// on a second memory mapping the same pages, copying each before its
	// first store exactly as a replay machine does.
	t.image = m.Mem
	m.Mem = &Memory{pages: maps.Clone(t.image.pages)}
	var r Retired
	for n := uint64(0); n < maxInstrs && !m.Halted; n++ {
		if err := m.Step(&r); err != nil {
			return nil, fmt.Errorf("fsim: capture of %q: %w", prog.Name, err)
		}
		t.recs = append(t.recs, entry{Src1: r.Src1, Src2: r.Src2, Result: r.Result})
	}
	t.halts = m.Halted
	return t, nil
}

// Prog returns the program the trace was captured from. Replaying callers
// must execute exactly this program object's instruction stream.
func (t *Trace) Prog() *program.Program { return t.prog }

// Len returns the number of recorded instructions.
func (t *Trace) Len() uint64 { return uint64(len(t.recs)) }

// Halts reports whether the recorded execution ended in OpHalt — i.e. the
// trace is the complete dynamic instruction stream of the program, not a
// budget-truncated prefix.
func (t *Trace) Halts() bool { return t.halts }

// Covers reports whether a run of n instructions stays within the trace:
// either n records were captured, or the program halts inside the trace
// (so no execution can get past its end).
func (t *Trace) Covers(n uint64) bool { return t.Halts() || t.Len() >= n }

// Preflight memoizes a program-level validation across the many runs that
// share this trace: check runs at most once, on the traced program, and
// every caller observes its result. The simulation driver routes its
// per-run static analysis through here so a grid pays for it once per
// benchmark instead of once per cell.
func (t *Trace) Preflight(check func(*program.Program) error) error {
	t.preflightOnce.Do(func() { t.preflightErr = check(t.prog) })
	return t.preflightErr
}

// Replay returns a cursor over the recorded stream starting at the first
// instruction. Cursors are independent; a shared Trace supports any
// number of concurrent ones.
func (t *Trace) Replay() *Cursor {
	return &Cursor{prog: t.prog, recs: t.recs, pc: t.prog.Entry}
}

// ReplayFrom returns a cursor positioned after the first skip
// instructions — the oracle-side equivalent of fast-forward. Each entry's
// PC depends on the one before it, so it rebuilds the skipped records.
func (t *Trace) ReplayFrom(skip uint64) *Cursor {
	c := t.Replay()
	var r Retired
	for ; skip > 0 && c.Next(&r); skip-- {
	}
	return c
}

// Cursor rebuilds the records of a Trace in order without re-executing.
// The commit-time divergence oracle steps one per retired instruction,
// and a replay machine (NewReplay) steps one per Step.
type Cursor struct {
	prog *program.Program
	recs []entry
	pos  int
	pc   uint64 // PC of recs[pos], the NextPC of the record before it
}

// Next rebuilds the next record into r and reports true, or reports false
// and leaves r untouched when the trace is exhausted. Every field of r is
// written: the operand values and the result come from the trace, the
// rest is derived from them, the running PC and the program as exec
// derives it.
//
//lint:hotpath
func (c *Cursor) Next(r *Retired) bool {
	if c.pos >= len(c.recs) {
		return false
	}
	e := &c.recs[c.pos]
	c.pos++
	pc := c.pc
	in := c.prog.Fetch(pc)
	oi := in.Op.Info()
	r.Seq = uint64(c.pos)
	r.PC = pc
	r.Instr = in
	r.Src1 = e.Src1
	r.Src2 = e.Src2
	r.Result = e.Result
	r.Addr = 0
	r.NextPC = pc + 1
	r.Taken = false
	r.Halt = in.Op == isa.OpHalt
	switch {
	case oi.IsLoad, oi.IsStore:
		r.Addr = isa.EffAddr(e.Src1, in.Imm)
	case oi.IsBranch:
		if isa.EvalBranch(in.Op, e.Src1, e.Src2) {
			r.Taken = true
			r.NextPC = isa.CtrlTarget(in.Op, in.Imm, e.Src1, pc)
		}
	case oi.IsJump:
		r.NextPC = isa.CtrlTarget(in.Op, in.Imm, e.Src1, pc)
	}
	c.pc = r.NextPC
	return true
}

// Remaining returns how many records the cursor has not yet yielded.
func (c *Cursor) Remaining() uint64 { return uint64(len(c.recs) - c.pos) }

// NewReplay creates a machine that replays t's recorded stream instead of
// interpreting: Step rebuilds each record through a Cursor and applies
// its architectural side effects (register write, store, PC) without
// evaluating, which is cheaper and bit-identical by construction. When
// the trace is exhausted before the machine halts, Step falls back to
// live interpretation seamlessly — the architectural state at the trace's
// end is exactly what the interpreter needs to continue.
//
// The machine's memory maps the trace's initial image instead of
// installing the data segment again: set-up clones only the page
// directory, and a page is copied on the machine's first store to it.
//
// The wrong-path overlay (Front) composes with replay unchanged: the
// overlay reads the machine's registers and memory, which replay keeps as
// current as interpretation would.
func NewReplay(t *Trace) *Machine {
	return &Machine{
		Prog:   t.prog,
		Mem:    &Memory{pages: maps.Clone(t.image.pages)},
		PC:     t.prog.Entry,
		replay: *t.Replay(),
	}
}
