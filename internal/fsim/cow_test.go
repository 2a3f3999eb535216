package fsim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// cowProgram spans several data pages, overwrites every word of the array
// with its negation in a loop, then stores 99 to word 1 and reloads it.
// It returns the program, the array base and the PC of the final load.
func cowProgram() (*program.Program, uint64, uint64) {
	const words = 3*pageWords + 17
	b := program.NewBuilder("cow")
	base := b.Array(words, func(i int) uint64 { return uint64(i) + 1 })
	b.LoadConst(1, int64(base))
	b.LoadConst(2, words)
	b.Label("loop")
	b.EmitImm(isa.OpLoad, 3, 1, 0)
	b.EmitOp(isa.OpSub, 3, isa.ZeroReg, 3)
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 3})
	b.EmitImm(isa.OpAddi, 1, 1, 8)
	b.EmitImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, isa.ZeroReg, "loop")
	b.LoadConst(1, int64(base))
	b.LoadConst(4, 99)
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 4, Imm: 8})
	load := b.PC()
	b.EmitImm(isa.OpLoad, 5, 1, 8)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild(), base, load
}

// sameInitialMemory fails unless m holds exactly New(prog)'s memory: the
// same page footprint and every data word at its initial value.
func sameInitialMemory(t *testing.T, who string, m *Machine, prog *program.Program) {
	t.Helper()
	ref := New(prog)
	if got, want := m.Mem.Footprint(), ref.Mem.Footprint(); got != want {
		t.Errorf("%s: footprint %d pages, want %d", who, got, want)
	}
	for i, v := range prog.Data {
		addr := prog.DataBase + 8*uint64(i)
		if got := m.Mem.Read(addr); got != v || got != ref.Mem.Read(addr) {
			t.Fatalf("%s: mem[%d] = %d, want %d", who, addr, got, v)
		}
	}
}

// TestReplayMemoryIsolated holds the trace's shared initial image to
// copy-on-write: replay machines start from New's memory, never see one
// another's stores, and leave the image intact for later replays and for
// a second capture of the same program.
func TestReplayMemoryIsolated(t *testing.T) {
	prog, base, _ := cowProgram()
	tr, err := Capture(prog, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halts() {
		t.Fatal("capture did not reach the halt")
	}
	a, b := NewReplay(tr), NewReplay(tr)
	sameInitialMemory(t, "replay a", a, prog)
	sameInitialMemory(t, "replay b", b, prog)

	// a runs the whole program (a store to every array word) and then
	// stores outside the data segment too; b must see none of it.
	if _, err := a.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !a.Halted {
		t.Fatal("replay a did not halt")
	}
	a.Mem.Write(base+uint64(5*pageWords*8), 7)
	if got := a.Mem.Read(base); got != ^uint64(0) {
		t.Fatalf("replay a: mem[base] = %#x after its own store, want -1", got)
	}
	sameInitialMemory(t, "replay b after a ran", b, prog)
	sameInitialMemory(t, "third replay", NewReplay(tr), prog)
	tr2, err := Capture(prog, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sameInitialMemory(t, "replay of a second capture", NewReplay(tr2), prog)

	// b's own stores land in b, and again a keeps its values.
	b.Mem.Write(base, 42)
	if got := b.Mem.Read(base); got != 42 {
		t.Errorf("replay b: mem[base] = %d after storing 42", got)
	}
	if got := a.Mem.Read(base); got != ^uint64(0) {
		t.Errorf("replay a: mem[base] = %#x after b stored, want -1", got)
	}

	// Replay and interpretation end in the same memory.
	direct := New(prog)
	if _, err := direct.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Mem.Footprint()-1, direct.Mem.Footprint(); got != want {
		t.Errorf("replay footprint %d (less the extra page), direct %d", got, want)
	}
	for i := range prog.Data {
		addr := prog.DataBase + 8*uint64(i)
		if got, want := a.Mem.Read(addr), direct.Mem.Read(addr); got != want {
			t.Fatalf("mem[%d]: replay %d, direct %d", addr, got, want)
		}
	}
}

// TestWrongPathSeesOwnStores checks that a wrong-path load on a replay
// machine reads through to that machine's earlier correct-path store into
// a shared page, not the image's initial value.
func TestWrongPathSeesOwnStores(t *testing.T) {
	prog, base, load := cowProgram()
	tr, err := Capture(prog, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	m := NewReplay(tr)
	f := NewFront(m)
	var r Retired
	for f.PC() != load {
		if err := f.StepCorrect(&r); err != nil {
			t.Fatal(err)
		}
	}
	f.EnterSpec()
	if f.StepSpecAt(load, &r); r.Result != 99 {
		t.Errorf("wrong-path load of mem[base+8] = %d, want the machine's own 99", r.Result)
	}
	if got := NewReplay(tr).Mem.Read(base + 8); got != 2 {
		t.Errorf("fresh replay reads mem[base+8] = %d, want the initial 2", got)
	}
}
