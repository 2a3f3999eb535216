package fsim

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workload"
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

// replayBudget is the capture length of the replay tests.
const replayBudget = 4000

// replayPrograms returns the programs the capture and replay tests run:
// the trace-test loop, every SPEC2000 profile generated for about
// replayBudget instructions (so some halt inside a capture and some are
// cut by it) and every kernel.
func replayPrograms(t *testing.T) []*program.Program {
	t.Helper()
	prog, _ := traceTestProgram(t, 40)
	progs := []*program.Program{prog}
	for _, p := range workload.SPEC2000() {
		gp, err := workload.Generate(p.WithIters(replayBudget / 2))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		progs = append(progs, gp)
	}
	return append(progs, workload.Kernels()...)
}

// checkReplay captures up to budget instructions of prog and requires a
// cursor over the trace, a replay machine, and direct interpretation to
// agree: the cursor's records and the replay machine's equal the direct
// machine's field for field, the replay machine's registers and PC after
// every step, and its memory at the end. The machines run on past the
// trace's end, so the interpretation fallback is checked too.
func checkReplay(t *testing.T, prog *program.Program, budget uint64) {
	t.Helper()
	tr, err := Capture(prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	direct, replay := New(prog), NewReplay(tr)
	cur := tr.Replay()
	var want, got, rec Retired
	for direct.Count < budget+budget/2 && !direct.Halted {
		derr := direct.Step(&want)
		rerr := replay.Step(&got)
		if derr != nil || rerr != nil {
			t.Fatalf("%s: step errors: direct=%v replay=%v", prog.Name, derr, rerr)
		}
		if got != want {
			t.Fatalf("%s: replay machine record %d:\nreplay %+v\ndirect %+v", prog.Name, want.Seq, got, want)
		}
		if direct.PC != replay.PC || direct.Regs != replay.Regs || direct.Halted != replay.Halted {
			t.Fatalf("%s: machine state diverges at seq %d", prog.Name, want.Seq)
		}
		if want.Seq > tr.Len() {
			continue
		}
		if !cur.Next(&rec) {
			t.Fatalf("%s: cursor exhausted at %d/%d", prog.Name, want.Seq, tr.Len())
		}
		if rec != want {
			t.Fatalf("%s: cursor record %d:\ncursor %+v\ndirect %+v", prog.Name, want.Seq, rec, want)
		}
	}
	if cur.Next(&rec) {
		t.Errorf("%s: cursor yielded past the recorded stream", prog.Name)
	}
	if halts := direct.Halted && direct.Count <= budget; tr.Halts() != halts {
		t.Errorf("%s: Halts() = %v, want %v", prog.Name, tr.Halts(), halts)
	}
	if replay.Count != direct.Count {
		t.Errorf("%s: replay count %d, direct %d", prog.Name, replay.Count, direct.Count)
	}
	if len(replay.Mem.pages) != len(direct.Mem.pages) {
		t.Errorf("%s: replay maps %d pages, direct %d", prog.Name, len(replay.Mem.pages), len(direct.Mem.pages))
	}
	for idx, pg := range direct.Mem.pages {
		if rp := replay.Mem.pages[idx].words; rp == nil || *rp != *pg.words {
			t.Errorf("%s: memory page %d differs after replay", prog.Name, idx)
		}
	}
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
	for _, prog := range replayPrograms(t) {
		checkReplay(t, prog, replayBudget)
	}
}

func TestReplayMachineStateMatchesDirect(t *testing.T) {
	// A capture cut well inside every program puts most of the run past
	// the trace's end, on the interpretation fallback.
	for _, prog := range replayPrograms(t) {
		checkReplay(t, prog, replayBudget/8)
	}
}

// FuzzTraceReplay decodes fuzzed code images, captures a bounded prefix
// of each one's execution and requires the cursor and a replay machine
// to reproduce direct interpretation (see checkReplay). Decoded images
// reach what generated programs do not: indirect jumps to any PC, PCs
// outside the code, FP operations on arbitrary bit patterns and halts.
func FuzzTraceReplay(f *testing.F) {
	for _, k := range workload.Kernels() {
		f.Add(k.Entry, uint16(300), k.ImageBytes())
	}
	f.Fuzz(func(t *testing.T, entry uint64, budget uint16, image []byte) {
		prog, err := program.DecodeImage("fuzz", entry, image)
		if err != nil {
			return
		}
		checkReplay(t, prog, uint64(budget%1024))
	})
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
	direct := New(prog)
	if _, err := direct.Run(5); err != nil {
		t.Fatal(err)
	}
	var r, want Retired
	if err := direct.Step(&want); err != nil {
		t.Fatal(err)
	}
	if !cur.Next(&r) || r != want {
		t.Fatalf("ReplayFrom(5) first record %+v, want %+v", r, want)
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
