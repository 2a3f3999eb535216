package fsim

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/program"
)

// Trace is the recorded Retired stream of one functional execution of a
// program, captured once and replayed many times. The record stream for a
// (program, instruction budget) pair is deterministic, so an experiment
// grid that runs the same benchmark on eight machine configurations can
// interpret it once and fan the flat read-only buffer out to every cell.
//
// A Trace is immutable after Capture and safe for concurrent replay from
// any number of goroutines.
type Trace struct {
	prog *program.Program
	recs []Retired

	// image is the program's initial memory, built once by Capture and
	// never written again: replay machines map its pages copy-on-write
	// instead of re-installing the data segment.
	image *Memory

	preflightOnce sync.Once
	preflightErr  error
}

// initialTraceCap bounds the first buffer allocation in Capture so a huge
// instruction budget on a program that halts early does not reserve
// gigabytes up front.
const initialTraceCap = 1 << 20

// Capture functionally executes prog from its entry point, recording up
// to maxInstrs retired records (fewer if the program halts first).
func Capture(prog *program.Program, maxInstrs uint64) (*Trace, error) {
	capHint := maxInstrs
	if capHint > initialTraceCap {
		capHint = initialTraceCap
	}
	t := &Trace{prog: prog, recs: make([]Retired, 0, capHint)}
	m := New(prog)
	// New's memory becomes the read-only image; the capture machine runs
	// on a second memory mapping the same pages, copying each before its
	// first store exactly as a replay machine does.
	t.image = m.Mem
	m.Mem = &Memory{pages: maps.Clone(t.image.pages)}
	for uint64(len(t.recs)) < maxInstrs && !m.Halted {
		r, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("fsim: capture of %q: %w", prog.Name, err)
		}
		t.recs = append(t.recs, r)
	}
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
func (t *Trace) Halts() bool {
	return len(t.recs) > 0 && t.recs[len(t.recs)-1].Halt
}

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
func (t *Trace) Replay() *Cursor { return &Cursor{recs: t.recs} }

// ReplayFrom returns a cursor positioned after the first skip
// instructions — the oracle-side equivalent of fast-forward.
func (t *Trace) ReplayFrom(skip uint64) *Cursor {
	if skip > uint64(len(t.recs)) {
		skip = uint64(len(t.recs))
	}
	return &Cursor{recs: t.recs, pos: int(skip)}
}

// Cursor yields the records of a Trace in order without re-executing.
// The commit-time divergence oracle steps one per retired instruction.
type Cursor struct {
	recs []Retired
	pos  int
}

// Next returns a pointer to the next record, or nil, false when the trace
// is exhausted. The record is shared read-only state: callers must not
// modify it.
//
//lint:hotpath
func (c *Cursor) Next() (*Retired, bool) {
	if c.pos >= len(c.recs) {
		return nil, false
	}
	r := &c.recs[c.pos]
	c.pos++
	return r, true
}

// Remaining returns how many records the cursor has not yet yielded.
func (c *Cursor) Remaining() uint64 { return uint64(len(c.recs) - c.pos) }

// NewReplay creates a machine that replays t's recorded stream instead of
// interpreting: Step applies each record's architectural side effects
// (register write, store, PC) without decoding or evaluating, which is
// substantially cheaper and bit-identical by construction. When the trace
// is exhausted before the machine halts, Step falls back to live
// interpretation seamlessly — the architectural state at the trace's end
// is exactly what the interpreter needs to continue.
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
		replay: t,
	}
}
