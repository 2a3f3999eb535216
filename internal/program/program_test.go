package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("labels")
	b.LoadConst(1, 3) // r1 = 3 (counter)
	b.Label("loop")
	b.EmitImm(isa.OpAddi, 2, 2, 1)              // r2++
	b.EmitImm(isa.OpAddi, 1, 1, -1)             // r1--
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop") // backward
	b.Branch(isa.OpBeq, 0, 0, "done")           // forward
	b.EmitImm(isa.OpAddi, 3, 3, 99)             // skipped
	b.Label("done")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The backward branch at pc=3 must target pc=1: imm = -2.
	if p.Code[3].Imm != -2 {
		t.Errorf("backward branch imm = %d, want -2", p.Code[3].Imm)
	}
	// The forward branch at pc=4 must target pc=6: imm = +2.
	if p.Code[4].Imm != 2 {
		t.Errorf("forward branch imm = %d, want 2", p.Code[4].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jump("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Build error = %v, want undefined label", err)
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
}

func TestValidateRejectsOutOfRangeTarget(t *testing.T) {
	p := &Program{Name: "bad", Code: []isa.Instr{
		{Op: isa.OpJump, Imm: 100},
		{Op: isa.OpHalt},
	}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range jump target")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted empty program")
	}
}

func TestFetchOutsideCodeReturnsNop(t *testing.T) {
	p := &Program{Name: "p", Code: []isa.Instr{{Op: isa.OpHalt}}}
	if got := p.Fetch(999); got.Op != isa.OpNop {
		t.Errorf("Fetch(999) = %v, want nop", got)
	}
}

func TestDataSegment(t *testing.T) {
	b := NewBuilder("data")
	a0 := b.Word(42)
	base := b.Array(4, func(i int) uint64 { return uint64(i * i) })
	if a0 == 0 {
		t.Error("Word allocated at reserved address 0")
	}
	if base != a0+8 {
		t.Errorf("Array base = %d, want %d", base, a0+8)
	}
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p := b.MustBuild()
	if p.DataBase != a0 || len(p.Data) != 5 {
		t.Fatalf("data segment at %d, %d words; want %d, 5", p.DataBase, len(p.Data), a0)
	}
	word := func(addr uint64) uint64 { return p.Data[(addr-p.DataBase)/8] }
	if got := word(a0); got != 42 {
		t.Errorf("word at %d = %d, want 42", a0, got)
	}
	if got := word(base + 24); got != 9 {
		t.Errorf("Array[3] = %d, want 9", got)
	}
	if b.DataSize() != base+32 {
		t.Errorf("DataSize = %d, want %d", b.DataSize(), base+32)
	}
}

func TestLoadConstWide(t *testing.T) {
	b := NewBuilder("const")
	b.LoadConst(1, 7)            // one addi
	b.LoadConst(2, -9)           // one addi
	b.LoadConst(3, 1<<33|0x1234) // lui + addi
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p := b.MustBuild()
	if len(p.Code) != 5 {
		t.Fatalf("code len = %d, want 5", len(p.Code))
	}
	if p.Code[0].Op != isa.OpAddi || p.Code[2].Op != isa.OpLui || p.Code[3].Op != isa.OpAddi {
		t.Errorf("unexpected sequence: %v %v %v %v", p.Code[0], p.Code[1], p.Code[2], p.Code[3])
	}
}

func TestImageRoundTrip(t *testing.T) {
	b := NewBuilder("img")
	b.EmitOp(isa.OpAdd, 1, 2, 3)
	b.EmitImm(isa.OpLoad, 4, 5, 16)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p := b.MustBuild()
	img := p.Image()
	for i, w := range img {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("image word %d: %v", i, err)
		}
		if in != p.Code[i] {
			t.Errorf("image word %d: %v != %v", i, in, p.Code[i])
		}
	}
}

func TestCallRet(t *testing.T) {
	b := NewBuilder("callret")
	b.Call("fn")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	b.Label("fn")
	b.EmitImm(isa.OpAddi, 1, 1, 5)
	b.Ret()
	p := b.MustBuild()
	if p.Code[0].Op != isa.OpCall || p.Code[0].Imm != 2 {
		t.Errorf("call = %v, want imm 2", p.Code[0])
	}
	if p.Code[3].Op != isa.OpJalr || p.Code[3].Src1 != isa.LinkReg {
		t.Errorf("ret = %v", p.Code[3])
	}
}
