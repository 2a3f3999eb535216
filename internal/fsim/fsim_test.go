package fsim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/program"
)

// sumProgram computes sum(1..n) into r2 via a loop, stores it, reloads it
// into r3, and halts.
func sumProgram(n int64) *program.Program {
	b := program.NewBuilder("sum")
	addr := b.Word(0)
	b.LoadConst(1, n) // r1 = n
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 2, 2, 1)                // r2 += r1
	b.EmitImm(isa.OpAddi, 1, 1, -1)             // r1--
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop") // while r1 != 0
	b.LoadConst(4, int64(addr))                 // r4 = &word
	b.EmitImm(isa.OpStore, 0, 4, 0)             // placeholder, fixed below
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p := b.MustBuild()
	// EmitImm can't express store's src2; patch it in directly.
	p.Code[len(p.Code)-2] = isa.Instr{Op: isa.OpStore, Src1: 4, Src2: 2}
	return p
}

func TestMachineSumLoop(t *testing.T) {
	p := sumProgram(10)
	m := New(p)
	n, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("machine did not halt")
	}
	if m.Regs[2] != 55 {
		t.Errorf("r2 = %d, want 55", m.Regs[2])
	}
	if n == 0 || n > 1000 {
		t.Errorf("retired %d instructions", n)
	}
}

func TestMachineStoreLoad(t *testing.T) {
	b := program.NewBuilder("sl")
	addr := b.Word(7)
	b.LoadConst(1, int64(addr))
	b.EmitImm(isa.OpLoad, 2, 1, 0) // r2 = mem[addr] = 7
	b.EmitImm(isa.OpAddi, 2, 2, 1) // r2 = 8
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 2, Imm: 8})
	b.EmitImm(isa.OpLoad, 3, 1, 8) // r3 = 8
	b.Emit(isa.Instr{Op: isa.OpHalt})
	m := New(b.MustBuild())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Regs[3] != 8 {
		t.Errorf("r3 = %d, want 8", m.Regs[3])
	}
	if got := m.Mem.Read(addr + 8); got != 8 {
		t.Errorf("mem[addr+8] = %d, want 8", got)
	}
}

func TestMachineCallRet(t *testing.T) {
	b := program.NewBuilder("call")
	b.Call("double")
	b.Call("double")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	b.Label("double")
	b.EmitOp(isa.OpAdd, 1, 1, 1)
	b.Ret()
	m := New(b.MustBuild())
	m.Regs[1] = 3
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Regs[1] != 12 {
		t.Errorf("r1 = %d, want 12", m.Regs[1])
	}
}

func TestMachineZeroRegHardwired(t *testing.T) {
	b := program.NewBuilder("zero")
	b.EmitImm(isa.OpAddi, isa.ZeroReg, isa.ZeroReg, 42)
	b.EmitOp(isa.OpAdd, 1, isa.ZeroReg, isa.ZeroReg)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	m := New(b.MustBuild())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; zero register not hardwired", m.Regs[0], m.Regs[1])
	}
}

func TestStepOnHaltedErrors(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	m := New(b.MustBuild())
	var r Retired
	if err := m.Step(&r); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(&r); err == nil {
		t.Error("Step on halted machine did not error")
	}
}

// TestRetiredSize pins the record's size: the trace holds one per
// instruction and the core writes one per copy group, so a new field or a
// flag that breaks the packing of the two bools shows here.
func TestRetiredSize(t *testing.T) {
	if got := unsafe.Sizeof(Retired{}); got != 72 {
		t.Errorf("unsafe.Sizeof(Retired{}) = %d, want 72", got)
	}
}

// TestTraceEntrySize pins what a Trace stores per instruction: the
// operand values and the result, 24 bytes. A grid holds one trace per
// workload for its whole run, so each byte here is paid per traced
// instruction; the budget is 32.
func TestTraceEntrySize(t *testing.T) {
	var tr Trace
	if got := unsafe.Sizeof(tr.recs[0]); got != 24 {
		t.Errorf("a trace stores %d bytes per instruction, want 24", got)
	}
}

func TestRetiredRecordFields(t *testing.T) {
	b := program.NewBuilder("rec")
	addr := b.Word(5)
	b.LoadConst(1, int64(addr)) // pc 0
	b.EmitImm(isa.OpLoad, 2, 1, 0)
	b.EmitOp(isa.OpAdd, 3, 2, 2)
	b.Branch(isa.OpBeq, 3, 3, "t")
	b.Emit(isa.Instr{Op: isa.OpNop})
	b.Label("t")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	m := New(b.MustBuild())

	// One record is reused throughout: each step must overwrite it whole.
	var r Retired
	m.Step(&r)
	if r.Seq != 1 || r.PC != 0 {
		t.Errorf("first record: seq=%d pc=%d", r.Seq, r.PC)
	}
	m.Step(&r)
	if r.Addr != addr || r.Result != 5 {
		t.Errorf("load record: addr=%d result=%d", r.Addr, r.Result)
	}
	m.Step(&r)
	if r.Src1 != 5 || r.Src2 != 5 || r.Result != 10 || r.Addr != 0 {
		t.Errorf("add record: %+v", r)
	}
	m.Step(&r)
	if !r.Taken || r.NextPC != 5 || r.Result != 0 {
		t.Errorf("branch record: taken=%v next=%d result=%d", r.Taken, r.NextPC, r.Result)
	}
	m.Step(&r)
	if !r.Halt || r.Taken {
		t.Errorf("halt record: halt=%v taken=%v", r.Halt, r.Taken)
	}
}

func TestFrontSpecOverlay(t *testing.T) {
	b := program.NewBuilder("spec")
	addr := b.Word(100)
	b.LoadConst(1, int64(addr))                          // pc 0: r1 = addr
	b.EmitImm(isa.OpAddi, 2, 0, 1)                       // pc 1: r2 = 1
	b.EmitImm(isa.OpAddi, 3, 0, 2)                       // pc 2
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 3}) // pc 3: mem[addr]=2
	b.Emit(isa.Instr{Op: isa.OpHalt})                    // pc 4
	f := NewFront(New(b.MustBuild()))

	var r Retired
	if err := f.StepCorrect(&r); err != nil { // pc 0
		t.Fatal(err)
	}
	f.StepCorrect(&r) // pc 1: r2 = 1
	if r.Result != 1 {
		t.Fatalf("r2 = %d", r.Result)
	}

	// Pretend pc 1 was a mispredicted branch: go down a wrong path that
	// overwrites r2 and memory.
	f.EnterSpec()
	if !f.Spec() {
		t.Fatal("Spec() = false after EnterSpec")
	}
	f.StepSpecAt(2, &r) // wrong path executes pc2: r3 = 2
	if r.Result != 2 {
		t.Errorf("spec r3 = %d", r.Result)
	}
	f.StepSpecAt(3, &r) // wrong path store mem[addr] = 2
	// Wrong-path effects must be visible inside the overlay...
	if got := (specMemReader{f}).Read(addr); got != 2 {
		t.Errorf("spec mem read = %d, want 2", got)
	}
	// ...but not in the architected machine.
	if got := f.M.Mem.Read(addr); got != 100 {
		t.Errorf("architected mem = %d, want 100", got)
	}
	if f.M.Regs[3] != 0 {
		t.Errorf("architected r3 = %d, want 0", f.M.Regs[3])
	}

	f.Squash()
	if f.Spec() {
		t.Error("Spec() = true after Squash")
	}
	// A later wrong path starts from the architected registers, not the
	// squashed path's r3.
	f.EnterSpec()
	if f.StepSpecAt(3, &r); r.Src2 != 0 {
		t.Errorf("wrong path after a squash reads r3 = %d, want the architected 0", r.Src2)
	}
	f.Squash()
	// Correct path resumes where it left off (pc 2).
	f.StepCorrect(&r)
	if r.PC != 2 || r.Result != 2 {
		t.Errorf("post-squash step: %+v", r)
	}
	f.StepCorrect(&r) // the real store
	if got := f.M.Mem.Read(addr); got != 2 {
		t.Errorf("mem after real store = %d", got)
	}
}

func TestFrontSpecReadsThroughToArchState(t *testing.T) {
	b := program.NewBuilder("spec2")
	b.EmitImm(isa.OpAddi, 1, 0, 7) // pc 0
	b.EmitOp(isa.OpAdd, 2, 1, 1)   // pc 1
	b.Emit(isa.Instr{Op: isa.OpHalt})
	f := NewFront(New(b.MustBuild()))
	var r Retired
	f.StepCorrect(&r)
	f.EnterSpec()
	// Wrong path reads r1, which only exists in architected state.
	f.StepSpecAt(1, &r)
	if r.Result != 14 {
		t.Errorf("spec add = %d, want 14", r.Result)
	}
	f.Squash()
}

func TestFrontPanics(t *testing.T) {
	b := program.NewBuilder("p")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	f := NewFront(New(b.MustBuild()))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	var r Retired
	mustPanic("StepSpecAt outside spec", func() { f.StepSpecAt(0, &r) })
	f.EnterSpec()
	mustPanic("nested EnterSpec", func() { f.EnterSpec() })
	mustPanic("StepCorrect during spec", func() { f.StepCorrect(&r) })
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	if m.Read(0) != 0 || m.Read(1<<39) != 0 {
		t.Error("unwritten memory not zero")
	}
	m.Write(8, 42)
	m.Write(1<<30, 43)
	if m.Read(8) != 42 || m.Read(1<<30) != 43 {
		t.Error("write/read mismatch")
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2", m.Footprint())
	}
}

// Property: memory is a map — last write wins, distinct aligned addresses
// do not interfere.
func TestMemoryProperty(t *testing.T) {
	f := func(addrs []uint64, vals []uint64) bool {
		m := NewMemory()
		want := make(map[uint64]uint64)
		for i, a := range addrs {
			if i >= len(vals) {
				break
			}
			a = a % (1 << 40) &^ 7
			m.Write(a, vals[i])
			want[a] = vals[i]
		}
		for a, v := range want {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a machine run is deterministic — two runs of the same program
// produce identical final register files and instruction counts.
func TestMachineDeterministicProperty(t *testing.T) {
	f := func(n uint8) bool {
		p := sumProgram(int64(n%50) + 1)
		m1, m2 := New(p), New(p)
		m1.Run(10000)
		m2.Run(10000)
		return m1.Regs == m2.Regs && m1.Count == m2.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFrontAccessors(t *testing.T) {
	b := program.NewBuilder("acc")
	b.EmitImm(isa.OpAddi, 1, 0, 1)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	f := NewFront(New(b.MustBuild()))
	if f.PC() != 0 || f.Halted() {
		t.Error("fresh front state wrong")
	}
	var r Retired
	f.StepCorrect(&r)
	if f.PC() != 1 {
		t.Errorf("PC = %d after one step", f.PC())
	}
	f.StepCorrect(&r)
	if !f.Halted() {
		t.Error("front not halted after halt retired")
	}
}
