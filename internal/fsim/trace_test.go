package fsim

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// traceTestProgram builds a small loop with loads, stores, branches and
// ALU work so a trace exercises every record field, halting after the
// loop drains. It returns the program and its array's base address.
func traceTestProgram(t *testing.T, iters int64) (*program.Program, uint64) {
	t.Helper()
	b := program.NewBuilder("trace-test")
	base := b.Array(64, func(i int) uint64 { return uint64(i * 3) })
	b.LoadConst(1, iters)       // counter
	b.LoadConst(2, int64(base)) // pointer
	b.LoadConst(3, 7)           // increment
	b.Label("loop")
	b.EmitImm(isa.OpLoad, 4, 2, 0)
	b.EmitOp(isa.OpAdd, 4, 4, 3)
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 2, Src2: 4})
	b.EmitImm(isa.OpAddi, 2, 2, 8)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, base
}

func TestCaptureMatchesDirectExecution(t *testing.T) {
	prog, _ := traceTestProgram(t, 40)
	tr, err := Capture(prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halts() {
		t.Fatal("trace of a halting program should record the halt")
	}
	if !tr.Covers(tr.Len()) || !tr.Covers(1_000_000) {
		t.Error("a halting trace covers any budget")
	}
	m := New(prog)
	cur := tr.Replay()
	var want Retired
	for i := uint64(0); i < tr.Len(); i++ {
		if err := m.Step(&want); err != nil {
			t.Fatal(err)
		}
		got, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor exhausted at %d/%d", i, tr.Len())
		}
		if *got != want {
			t.Fatalf("record %d:\nreplay %+v\ndirect %+v", i, *got, want)
		}
	}
	if _, ok := cur.Next(); ok {
		t.Error("cursor yielded past the recorded stream")
	}
}

func TestReplayMachineStateMatchesDirect(t *testing.T) {
	prog, _ := traceTestProgram(t, 40)
	tr, err := Capture(prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	direct, replay := New(prog), NewReplay(tr)
	var dr, rr Retired
	for !direct.Halted {
		derr := direct.Step(&dr)
		rerr := replay.Step(&rr)
		if derr != nil || rerr != nil {
			t.Fatalf("step errors: direct=%v replay=%v", derr, rerr)
		}
		if dr != rr {
			t.Fatalf("records diverge at seq %d:\ndirect %+v\nreplay %+v", dr.Seq, dr, rr)
		}
		if direct.PC != replay.PC || direct.Regs != replay.Regs {
			t.Fatalf("state diverges at seq %d", dr.Seq)
		}
	}
	if !replay.Halted || replay.Count != direct.Count {
		t.Errorf("replay end state: halted=%v count=%d, want halted count=%d",
			replay.Halted, replay.Count, direct.Count)
	}
}

func TestReplayFallsBackToInterpretation(t *testing.T) {
	prog, base := traceTestProgram(t, 40)
	const prefix = 17
	tr, err := Capture(prog, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != prefix || tr.Halts() {
		t.Fatalf("want a %d-record truncated trace, got len=%d halts=%v", prefix, tr.Len(), tr.Halts())
	}
	if tr.Covers(prefix + 1) {
		t.Error("a truncated trace must not claim to cover a larger budget")
	}
	direct, replay := New(prog), NewReplay(tr)
	var dr, rr Retired
	for !direct.Halted {
		direct.Step(&dr)
		if rerr := replay.Step(&rr); rerr != nil {
			t.Fatal(rerr)
		}
		if dr != rr {
			t.Fatalf("records diverge at seq %d (past trace end at %d)", dr.Seq, prefix)
		}
	}
	// Memory written past the trace end must match a direct run's.
	for i := uint64(0); i < 40; i++ {
		addr := base + 8*i
		if got, want := replay.Mem.Read(addr), direct.Mem.Read(addr); got != want {
			t.Errorf("memory diverged after fallback at %d: %d != %d", addr, got, want)
		}
	}
}

func TestReplayFromSkipsPrefix(t *testing.T) {
	prog, _ := traceTestProgram(t, 40)
	tr, err := Capture(prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cur := tr.ReplayFrom(5)
	r, ok := cur.Next()
	if !ok || r.Seq != 6 {
		t.Fatalf("ReplayFrom(5) first record seq = %d, want 6", r.Seq)
	}
	if want := tr.Len() - 6; cur.Remaining() != want {
		t.Errorf("remaining = %d, want %d", cur.Remaining(), want)
	}
	if c := tr.ReplayFrom(tr.Len() + 99); c.Remaining() != 0 {
		t.Error("ReplayFrom past the end should yield nothing")
	}
}

func TestPreflightMemoized(t *testing.T) {
	prog, _ := traceTestProgram(t, 4)
	tr, err := Capture(prog, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sentinel := errors.New("sentinel")
	check := func(p *program.Program) error {
		calls++
		if p != prog {
			t.Error("preflight got a different program")
		}
		return sentinel
	}
	for i := 0; i < 3; i++ {
		if err := tr.Preflight(check); !errors.Is(err, sentinel) {
			t.Fatalf("preflight err = %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("check ran %d times, want 1", calls)
	}
}
