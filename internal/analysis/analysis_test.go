package analysis

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workload"
)

// nestedLoopProgram builds
//
//	addi r1, r0, 3        ; outer counter
//	addi r3, r0, 0        ; accumulator init
//	OUTER: addi r2, r0, 4 ; inner counter
//	INNER: addi r3, r3, 1
//	addi r2, r2, -1
//	bne  r2, r0, INNER
//	addi r1, r1, -1
//	bne  r1, r0, OUTER
//	halt
func nestedLoopProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("nested")
	b.EmitImm(isa.OpAddi, 1, isa.ZeroReg, 3)
	b.EmitImm(isa.OpAddi, 3, isa.ZeroReg, 0)
	b.Label("outer")
	b.EmitImm(isa.OpAddi, 2, isa.ZeroReg, 4)
	b.Label("inner")
	b.EmitImm(isa.OpAddi, 3, 3, 1)
	b.EmitImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, isa.ZeroReg, "inner")
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "outer")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCFGNestedLoops(t *testing.T) {
	p := nestedLoopProgram(t)
	g := BuildCFG(p)

	if got := len(g.Loops); got != 2 {
		t.Fatalf("loops = %d, want 2", got)
	}
	for _, b := range g.Blocks {
		if !b.Reachable {
			t.Errorf("block %d [%d,%d) unreachable, want all reachable", b.ID, b.Start, b.End)
		}
	}
	if g.Entry().Start != 0 {
		t.Errorf("entry block starts at %d, want 0", g.Entry().Start)
	}
	// The inner-loop body block (containing pc of "addi r3, r3, 1" at
	// index 3) is at depth 2; the outer-only block (inner counter reset,
	// index 2) at depth 1; the entry at depth 0.
	if d := g.BlockAt(3).LoopDepth; d != 2 {
		t.Errorf("inner body depth = %d, want 2", d)
	}
	if d := g.BlockAt(2).LoopDepth; d != 1 {
		t.Errorf("outer prep depth = %d, want 1", d)
	}
	if d := g.BlockAt(0).LoopDepth; d != 0 {
		t.Errorf("entry depth = %d, want 0", d)
	}
	if !g.BlockAt(3).LoopHead || !g.BlockAt(2).LoopHead {
		t.Error("loop header blocks not flagged LoopHead")
	}
	inner := g.InnermostLoop(g.BlockAt(3))
	if inner == nil || inner.Depth != 2 {
		t.Fatalf("innermost loop of body = %+v, want depth 2", inner)
	}
	outer := g.InnermostLoop(g.BlockAt(2))
	if outer == nil || outer.Depth != 1 {
		t.Fatalf("innermost loop of outer prep = %+v, want depth 1", outer)
	}

	if tr := loopTrip(g, inner); tr != 4 {
		t.Errorf("inner loopTrip = %v, want 4", tr)
	}
	if tr := loopTrip(g, outer); tr != 3 {
		t.Errorf("outer loopTrip = %v, want 3", tr)
	}
}

func TestCFGCallReturnEdges(t *testing.T) {
	b := program.NewBuilder("callret")
	b.Call("leaf")
	b.EmitImm(isa.OpAddi, 1, 1, 1) // return point
	b.Emit(isa.Instr{Op: isa.OpHalt})
	b.Label("leaf")
	b.EmitImm(isa.OpAddi, 1, isa.ZeroReg, 7)
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	for _, blk := range g.Blocks {
		if !blk.Reachable {
			t.Errorf("block %d [%d,%d) unreachable; call/return edges missing",
				blk.ID, blk.Start, blk.End)
		}
	}
	if len(g.Loops) != 0 {
		t.Errorf("loops = %d, want 0", len(g.Loops))
	}
	// The leaf's return must flow to the return point, so r1's def in the
	// leaf reaches the increment: no read-before-write diagnostic.
	r := Analyze(p)
	if len(r.Diags) != 0 {
		t.Errorf("diagnostics on clean call/ret program: %v", r.Diags)
	}
}

func TestLiveness(t *testing.T) {
	p := nestedLoopProgram(t)
	g := BuildCFG(p)
	lv := ComputeLiveness(g)
	if el := lv.EntryLive(); el != 0 {
		t.Errorf("entry-live = %v, want empty", el.regs())
	}
}

// diagKinds returns the multiset of diagnostic kinds reported for p.
func diagKinds(t *testing.T, p *program.Program) []Kind {
	t.Helper()
	r := Analyze(p)
	kinds := make([]Kind, len(r.Diags))
	for i, d := range r.Diags {
		kinds[i] = d.Kind
	}
	return kinds
}

func wantOnly(t *testing.T, p *program.Program, want Kind) {
	t.Helper()
	kinds := diagKinds(t, p)
	if len(kinds) != 1 || kinds[0] != want {
		t.Fatalf("diagnostics = %v, want exactly [%s]", kinds, want)
	}
}

func TestDiagReadBeforeWrite(t *testing.T) {
	b := program.NewBuilder("rbw")
	b.EmitOp(isa.OpAdd, 1, 2, isa.ZeroReg) // r2 never written
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindReadBeforeWrite)

	r := Analyze(p)
	if r.Diags[0].PC != 0 {
		t.Errorf("diag pc = %d, want 0", r.Diags[0].PC)
	}
}

// TestDiagReadBeforeWriteMessages pins which message a read-before-write
// finding carries: a register no reachable instruction writes is "never
// written anywhere", even when unreachable code writes it; one written
// later "can be read before its first write".
func TestDiagReadBeforeWriteMessages(t *testing.T) {
	b := program.NewBuilder("rbw-messages")
	b.EmitOp(isa.OpAdd, 1, 2, isa.ZeroReg)   // pc 0: r2 never written
	b.EmitOp(isa.OpAdd, 4, 3, isa.ZeroReg)   // pc 1: r3 written at pc 2
	b.EmitImm(isa.OpAddi, 3, isa.ZeroReg, 1) // pc 2
	b.EmitOp(isa.OpAdd, 6, 5, isa.ZeroReg)   // pc 3: r5 written only at pc 5
	b.Jump("end")                            // pc 4
	b.EmitImm(isa.OpAddi, 5, isa.ZeroReg, 1) // pc 5: unreachable
	b.Label("end")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{
		0: fmt.Sprintf("%s is read but never written anywhere in the program", isa.Reg(2)),
		1: fmt.Sprintf("%s can be read before its first write", isa.Reg(3)),
		3: fmt.Sprintf("%s is read but never written anywhere in the program", isa.Reg(5)),
	}
	got := map[int64]string{}
	for _, d := range Analyze(p).Diags {
		if d.Kind == KindReadBeforeWrite {
			got[d.PC] = d.Detail
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read-before-write findings by pc:\n got %v\nwant %v", got, want)
	}
}

func TestDiagUnreachable(t *testing.T) {
	b := program.NewBuilder("unreachable")
	b.Jump("end")
	b.EmitOp(isa.OpAdd, 1, isa.ZeroReg, isa.ZeroReg) // skipped forever
	b.Label("end")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindUnreachable)
}

func TestDiagUnreachableNopPaddingExempt(t *testing.T) {
	b := program.NewBuilder("padding")
	b.Jump("end")
	b.Emit(isa.Instr{Op: isa.OpNop})
	b.Emit(isa.Instr{Op: isa.OpNop})
	b.Label("end")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if kinds := diagKinds(t, p); len(kinds) != 0 {
		t.Fatalf("diagnostics = %v, want none (NOP padding is exempt)", kinds)
	}
}

func TestDiagZeroRegWrite(t *testing.T) {
	b := program.NewBuilder("zerowrite")
	b.EmitOp(isa.OpAdd, isa.ZeroReg, isa.ZeroReg, isa.ZeroReg)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindZeroRegWrite)
}

func TestDiagZeroRegWriteReturnIdiomExempt(t *testing.T) {
	b := program.NewBuilder("retidiom")
	b.Call("leaf")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	b.Label("leaf")
	b.Ret() // jalr r0, r31: link discarded by design
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if kinds := diagKinds(t, p); len(kinds) != 0 {
		t.Fatalf("diagnostics = %v, want none (return idiom is exempt)", kinds)
	}
}

func TestDiagMisalignedData(t *testing.T) {
	b := program.NewBuilder("misaligned")
	b.Word(1)
	b.Word(2)
	b.LoadConst(1, 68) // inside the segment but not 8-byte aligned
	b.EmitImm(isa.OpLoad, 2, 1, 0)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindMisalignedData)
}

func TestDiagOutOfSegment(t *testing.T) {
	b := program.NewBuilder("oos")
	b.Word(1)
	b.LoadConst(1, 1<<20) // aligned, far past the data extent
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: isa.ZeroReg})
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindOutOfSegment)
}

func TestDiagFallthroughOffCode(t *testing.T) {
	b := program.NewBuilder("fallthrough")
	b.EmitImm(isa.OpAddi, 1, isa.ZeroReg, 1) // no halt after this
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOnly(t, p, KindFallthrough)
}

func TestCheckReturnsStructuredDiagnostic(t *testing.T) {
	b := program.NewBuilder("broken")
	b.EmitOp(isa.OpAdd, 1, 2, isa.ZeroReg)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cerr := Check(p)
	if cerr == nil {
		t.Fatal("Check = nil, want diagnostic error")
	}
	var d *Diagnostic
	if !errors.As(cerr, &d) {
		t.Fatalf("Check error %v does not unwrap to *Diagnostic", cerr)
	}
	if d.Kind != KindReadBeforeWrite {
		t.Errorf("kind = %s, want %s", d.Kind, KindReadBeforeWrite)
	}
	if d.Program != "broken" {
		t.Errorf("program = %q, want broken", d.Program)
	}
}

// Every profile the workload package ships must generate programs that
// analyze clean at any seed — the generator's well-formedness contract.
func TestGeneratedWorkloadsAnalyzeClean(t *testing.T) {
	profiles := append(workload.SPEC2000(), workload.SPEC95()...)
	for _, prof := range profiles {
		for _, seed := range []uint64{prof.Seed, 1, 0xdecafbad} {
			prof := prof.WithIters(50_000)
			prof.Seed = seed
			p, err := workload.Generate(prof)
			if err != nil {
				t.Fatalf("%s seed=%d: generate: %v", prof.Name, seed, err)
			}
			if err := Check(p); err != nil {
				t.Errorf("%s seed=%d: %v", prof.Name, seed, err)
			}
		}
	}
}

func TestKernelsAnalyzeClean(t *testing.T) {
	for _, p := range workload.Kernels() {
		if err := Check(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPredictionBasics(t *testing.T) {
	prof, ok := workload.ByName("mesa")
	if !ok {
		t.Fatal("mesa profile missing")
	}
	p, err := workload.Generate(prof.WithIters(50_000))
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(p)
	pred := r.Prediction
	if pred.ReuseRate <= 0 || pred.ReuseRate >= 1 {
		t.Errorf("ReuseRate = %v, want in (0,1)", pred.ReuseRate)
	}
	if pred.HotInstrs <= 0 {
		t.Errorf("HotInstrs = %d, want > 0", pred.HotInstrs)
	}
	if pred.ConflictRatio < 1 {
		t.Errorf("ConflictRatio = %v, want >= 1", pred.ConflictRatio)
	}
	var sum float64
	for _, d := range pred.ClassDemand {
		if d < 0 || d > 1 {
			t.Fatalf("class demand %v out of [0,1]", d)
		}
		sum += d
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("class demand sums to %v, want 1", sum)
	}
	if pred.ClassDemand[isa.FUIntALU] == 0 {
		t.Error("IntALU demand = 0, want > 0")
	}
}

// The predictor must separate the structurally reuse-heavy programs from
// the reuse-free ones: an invariant-dominated high-locality profile (mesa)
// predicts far more reuse than a pure streaming kernel (memcpy) or a
// loop-carried recurrence (fib).
func TestPredictionSeparatesReuseRegimes(t *testing.T) {
	prof, _ := workload.ByName("mesa")
	mesaProg, err := workload.Generate(prof.WithIters(50_000))
	if err != nil {
		t.Fatal(err)
	}
	mesa := Analyze(mesaProg).Prediction.ReuseRate
	mc, _ := workload.KernelMemcpy(256)
	memcpy := Analyze(mc).Prediction.ReuseRate
	fib := Analyze(workload.KernelFib(90)).Prediction.ReuseRate
	if !(mesa > memcpy+0.2 && mesa > fib+0.2) {
		t.Errorf("predicted reuse mesa=%.3f memcpy=%.3f fib=%.3f; want mesa to dominate",
			mesa, memcpy, fib)
	}
}

// Analysis must be deterministic: identical input programs yield identical
// reports.
func TestAnalyzeDeterministic(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	p, err := workload.Generate(prof.WithIters(50_000))
	if err != nil {
		t.Fatal(err)
	}
	a, b := Analyze(p), Analyze(p)
	if fmt.Sprintf("%+v", a.Prediction) != fmt.Sprintf("%+v", b.Prediction) {
		t.Errorf("prediction not deterministic:\n%+v\n%+v", a.Prediction, b.Prediction)
	}
	if len(a.Diags) != len(b.Diags) {
		t.Errorf("diag count differs: %d vs %d", len(a.Diags), len(b.Diags))
	}
}
