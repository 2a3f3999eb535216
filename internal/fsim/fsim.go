// Package fsim implements the functional (architectural) simulator: an
// in-order interpreter for the ISA defined in internal/isa. It plays two
// roles in the repository:
//
//   - It is the value engine of the timing core. Like SimpleScalar's
//     sim-outorder, the out-of-order core executes instructions functionally
//     at dispatch (in fetch order) and plays out timing separately; fsim
//     provides that dispatch-front execution, including a copy-on-write
//     overlay (Front) for wrong-path instructions beyond a mispredicted
//     branch.
//
//   - It is the golden model. An independent Machine stepped at commit
//     verifies that the timing core retires exactly the correct-path
//     instruction stream with correct values, so timing bugs surface as
//     test failures instead of silently skewing IPC.
package fsim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// Retired describes one dynamically executed instruction with all values
// resolved. The timing core carries Retired records through the pipeline:
// operand values feed the IRB reuse test, results feed the commit-time
// check-&-retire comparison of DIE, and NextPC feeds branch resolution.
//
// A record is 72 bytes and written once, into storage its consumer owns:
// the stepping functions and Cursor.Next fill a *Retired they are handed
// instead of returning one, so a core's per-group slot or an oracle's own
// record is the only copy. A Trace does not hold records: it stores 24 of
// the 72 bytes per instruction and a Cursor rebuilds the rest. The two
// flags sit together at the end, where they share one word.
type Retired struct {
	Seq   uint64 // 1-based dynamic instruction number (0 for wrong-path)
	PC    uint64
	Instr isa.Instr

	Src1, Src2 uint64 // operand values read (bit patterns for FP); a store writes Src2
	Result     uint64 // value written to Dest (loads: loaded value)
	Addr       uint64 // effective address for loads/stores
	NextPC     uint64 // PC of the next instruction in program order

	Taken bool // conditional branch outcome
	Halt  bool // instruction was OpHalt
}

// Machine is the architectural state of one program execution.
type Machine struct {
	Prog *program.Program
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   uint64

	Halted bool
	Count  uint64 // retired instruction count

	// replay feeds Step from a pre-captured Trace (see NewReplay) until
	// it is exhausted; a machine from New has an empty one and interprets
	// from the start.
	replay Cursor
}

// New creates a machine loaded with prog: data segment installed, PC at the
// entry point, registers cleared.
func New(prog *program.Program) *Machine {
	m := &Machine{Prog: prog, Mem: NewMemory(), PC: prog.Entry}
	// Install the segment a page at a time: each page it overlaps is
	// created once and filled with one copy, the pages a word-by-word
	// Write would have made.
	word := prog.DataBase / 8
	for data := prog.Data; len(data) > 0; {
		words := new([pageWords]uint64)
		n := copy(words[word%pageWords:], data)
		m.Mem.pages[word/pageWords] = page{words: words, owner: m.Mem}
		data = data[n:]
		word += uint64(n)
	}
	return m
}

// Step executes the instruction at the current PC and writes its record
// to r. Calling Step on a halted machine returns an error and leaves r
// untouched.
func (m *Machine) Step(r *Retired) error {
	if m.Halted {
		return fmt.Errorf("fsim: step on halted machine %q at pc=%d", m.Prog.Name, m.PC)
	}
	if !m.replay.Next(r) {
		// Past a replayed trace's end the architectural state is exactly
		// the capture machine's at the same point, so interpretation
		// continues seamlessly.
		exec(r, m.Prog.Fetch(m.PC), m.PC, regReader(&m.Regs), m.Mem)
		r.Seq = m.Count + 1
	}
	m.Count++
	applyRegs(&m.Regs, r.Instr, r.Result)
	if r.Instr.Op.Info().IsStore {
		m.Mem.Write(r.Addr, r.Src2)
	}
	m.PC = r.NextPC
	if r.Halt {
		m.Halted = true
	}
	return nil
}

// Run executes until the machine halts or maxInstrs instructions have
// retired, returning the number retired.
func (m *Machine) Run(maxInstrs uint64) (uint64, error) {
	start := m.Count
	var r Retired
	for !m.Halted && m.Count-start < maxInstrs {
		if err := m.Step(&r); err != nil {
			return m.Count - start, err
		}
	}
	return m.Count - start, nil
}

// regReader adapts a register array to the operand-reading function used by
// exec, enforcing the hardwired zero register.
func regReader(regs *[isa.NumRegs]uint64) func(isa.Reg) uint64 {
	return func(r isa.Reg) uint64 {
		if r == isa.ZeroReg {
			return 0
		}
		return regs[r]
	}
}

func applyRegs(regs *[isa.NumRegs]uint64, in isa.Instr, result uint64) {
	if in.Op.Info().HasDest && in.Dest != isa.ZeroReg {
		regs[in.Dest] = result
	}
}

// exec evaluates one instruction at pc with operand values supplied by
// read and memory reads served by mem, overwriting every field of r but
// Seq, which it zeroes. It performs no state updates; the caller applies
// register, memory and PC effects from the record.
func exec(r *Retired, in isa.Instr, pc uint64, read func(isa.Reg) uint64, mem memReader) {
	oi := in.Op.Info()
	*r = Retired{PC: pc, Instr: in, NextPC: pc + 1}
	if oi.UsesSrc1 {
		r.Src1 = read(in.Src1)
	}
	if oi.UsesSrc2 {
		r.Src2 = read(in.Src2)
	}
	switch {
	case oi.IsLoad:
		r.Addr = isa.EffAddr(r.Src1, in.Imm)
		r.Result = mem.Read(r.Addr)
	case oi.IsStore:
		r.Addr = isa.EffAddr(r.Src1, in.Imm)
	case oi.IsBranch:
		r.Taken = isa.EvalBranch(in.Op, r.Src1, r.Src2)
		if r.Taken {
			r.NextPC = isa.CtrlTarget(in.Op, in.Imm, r.Src1, pc)
		}
	case oi.IsJump:
		r.NextPC = isa.CtrlTarget(in.Op, in.Imm, r.Src1, pc)
		if oi.HasDest {
			r.Result = isa.Exec(in.Op, r.Src1, r.Src2, in.Imm, pc)
		}
	case in.Op == isa.OpHalt:
		r.Halt = true
	case oi.HasDest:
		r.Result = isa.Exec(in.Op, r.Src1, r.Src2, in.Imm, pc)
	}
}

type memReader interface {
	Read(addr uint64) uint64
}
