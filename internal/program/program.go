// Package program defines the executable program representation shared by
// the functional simulator, the timing core and the workload generators: a
// code segment of decoded instructions, an initial data segment, and an
// entry point. It also provides an assembler-style Builder with symbolic
// labels for constructing programs programmatically.
package program

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Program is a complete executable image.
type Program struct {
	Name string

	// Code is the instruction memory. PC values index this slice.
	Code []isa.Instr

	// Data holds the initial contents of data memory as one contiguous,
	// address-ordered segment of 8-byte words: Data[i] is the word at
	// byte address DataBase+8*i. Memory outside the segment reads zero.
	Data     []uint64
	DataBase uint64

	// Entry is the PC of the first instruction to execute.
	Entry uint64
}

// Fetch returns the instruction at pc. Fetches outside the code segment
// (possible only on the wrong path of a mispredicted indirect jump) return
// a NOP so that speculative execution stays well defined.
func (p *Program) Fetch(pc uint64) isa.Instr {
	if pc >= uint64(len(p.Code)) {
		return isa.Instr{Op: isa.OpNop}
	}
	return p.Code[pc]
}

// Image encodes the code segment into its binary form, one 64-bit word per
// instruction. Used by tooling and by encoding round-trip tests.
func (p *Program) Image() []uint64 {
	img := make([]uint64, len(p.Code))
	for i, in := range p.Code {
		img[i] = isa.Encode(in)
	}
	return img
}

// Validate checks every instruction in the code segment and that branch
// targets stay within the code segment.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code segment", p.Name)
	}
	if p.Entry >= uint64(len(p.Code)) {
		return fmt.Errorf("program %q: entry %d outside code", p.Name, p.Entry)
	}
	for pc, in := range p.Code {
		if err := isa.Validate(in); err != nil {
			return fmt.Errorf("program %q pc=%d (%s): %w", p.Name, pc, in, err)
		}
		oi := in.Op.Info()
		if oi.IsCtrl() && !oi.IsIndirect {
			t := int64(pc) + int64(in.Imm)
			if t < 0 || t >= int64(len(p.Code)) {
				return fmt.Errorf("program %q pc=%d (%s): target %d outside code", p.Name, pc, in, t)
			}
		}
	}
	return nil
}

// Builder assembles a Program instruction by instruction, resolving
// symbolic branch labels in a single backpatching pass at Build time.
type Builder struct {
	name   string
	code   []isa.Instr
	data   []uint64
	labels map[string]uint64
	fixups []fixup
}

type fixup struct {
	pc    uint64
	label string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]uint64),
	}
}

// dataBase is the byte address of a built program's first data word. It
// keeps address 0 unused so that "null pointer" chases in generated
// workloads read a well-defined zero word.
const dataBase = 64

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.code)) }

// Label defines a symbolic label at the current PC. Defining the same label
// twice panics: generator code is the only caller and duplicate labels are
// always bugs.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		//nopanic:invariant generator code is the only caller and duplicate labels are always bugs
		panic(fmt.Sprintf("program: duplicate label %q", name))
	}
	b.labels[name] = b.PC()
}

// Emit appends a fully-resolved instruction.
func (b *Builder) Emit(in isa.Instr) {
	b.code = append(b.code, in)
}

// EmitOp is shorthand for Emit of a three-register operation.
func (b *Builder) EmitOp(op isa.Op, dest, src1, src2 isa.Reg) {
	b.Emit(isa.Instr{Op: op, Dest: dest, Src1: src1, Src2: src2})
}

// EmitImm is shorthand for Emit of an operation with an immediate.
func (b *Builder) EmitImm(op isa.Op, dest, src1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: op, Dest: dest, Src1: src1, Imm: imm})
}

// Branch emits a conditional branch or jump to a label resolved at Build.
func (b *Builder) Branch(op isa.Op, src1, src2 isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	b.Emit(isa.Instr{Op: op, Src1: src1, Src2: src2})
}

// Jump emits an unconditional jump to a label.
func (b *Builder) Jump(label string) {
	b.Branch(isa.OpJump, 0, 0, label)
}

// Call emits a call to a label; the return address lands in isa.LinkReg.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	b.Emit(isa.Instr{Op: isa.OpCall, Dest: isa.LinkReg})
}

// Ret emits a return through isa.LinkReg.
func (b *Builder) Ret() {
	b.Emit(isa.Instr{Op: isa.OpJalr, Dest: isa.ZeroReg, Src1: isa.LinkReg})
}

// LoadConst emits instructions that materialize a constant into reg.
// Constants that fit in the 32-bit immediate take one instruction; wider
// values take a lui/addi pair covering 48 bits, which is ample for the
// 40-bit address space.
func (b *Builder) LoadConst(reg isa.Reg, v int64) {
	if v == int64(int32(v)) {
		b.EmitImm(isa.OpAddi, reg, isa.ZeroReg, int32(v))
		return
	}
	hi := int32(v >> 16)
	lo := int32(v & 0xffff)
	b.EmitImm(isa.OpLui, reg, isa.ZeroReg, hi)
	if lo != 0 {
		b.EmitImm(isa.OpAddi, reg, reg, lo)
	}
}

// Word appends one 8-byte word to the data segment and returns its address.
func (b *Builder) Word(v uint64) uint64 {
	addr := b.DataSize()
	b.data = append(b.data, v)
	return addr
}

// Array reserves n consecutive words initialized by init(i) and returns the
// base address.
func (b *Builder) Array(n int, init func(i int) uint64) uint64 {
	base := b.DataSize()
	b.data = slices.Grow(b.data, n)
	for i := 0; i < n; i++ {
		b.data = append(b.data, init(i))
	}
	return base
}

// DataSize returns the current extent of the data segment in bytes.
func (b *Builder) DataSize() uint64 { return dataBase + 8*uint64(len(b.data)) }

// Build resolves all label fixups and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, f.label)
		}
		b.code[f.pc].Imm = int32(int64(target) - int64(f.pc))
	}
	p := &Program{Name: b.name, Code: b.code, Data: b.data, DataBase: dataBase}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for use in generators and tests
// where a build failure is a programming bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		//nopanic:invariant callers assert statically-correct programs; see the doc comment
		panic(err)
	}
	return p
}
