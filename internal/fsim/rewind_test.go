package fsim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// rewindProgram is a tiny straight-line-plus-loop program long enough to
// step a window of records out of.
func rewindProgram() *program.Program {
	b := program.NewBuilder("rewind")
	b.LoadConst(1, 6)
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 2, 2, 1)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// TestRewindReplaysRecords: records handed back to the front come out of
// StepCorrect again, verbatim and in order, before the machine resumes.
func TestRewindReplaysRecords(t *testing.T) {
	f := NewFront(New(rewindProgram()))
	recs := make([]Retired, 8)
	for i := range recs {
		if err := f.StepCorrect(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Flush the last five as a fault recovery would.
	flushed := append([]Retired(nil), recs[3:]...)
	f.Rewind(flushed)
	if got := f.Rewinding(); got != 5 {
		t.Fatalf("Rewinding() = %d, want 5", got)
	}
	if f.PC() != flushed[0].PC {
		t.Errorf("PC() = %d, want the rewind head %d", f.PC(), flushed[0].PC)
	}
	var got, want Retired
	for i := range flushed {
		if err := f.StepCorrect(&got); err != nil {
			t.Fatal(err)
		}
		if want = flushed[i]; got != want {
			t.Fatalf("replayed record %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if f.Rewinding() != 0 {
		t.Errorf("queue not drained: %d left", f.Rewinding())
	}

	// Execution continues on the machine: same stream as an unflushed run.
	ref := NewFront(New(rewindProgram()))
	for range recs {
		if err := ref.StepCorrect(&want); err != nil {
			t.Fatal(err)
		}
	}
	for !ref.Halted() {
		if err := ref.StepCorrect(&want); err != nil {
			t.Fatal(err)
		}
		if err := f.StepCorrect(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("post-rewind stream diverged:\n got %+v\nwant %+v", got, want)
		}
	}
	if !f.Halted() {
		t.Error("rewound front not halted when the reference is")
	}
}

// TestRewindDefersHalt: a machine that already stepped past the halt is
// not Halted while the halt still awaits re-dispatch.
func TestRewindDefersHalt(t *testing.T) {
	f := NewFront(New(rewindProgram()))
	var recs []Retired
	for !f.Halted() {
		var r Retired
		if err := f.StepCorrect(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	last := recs[len(recs)-2:]
	f.Rewind(last)
	if f.Halted() {
		t.Fatal("Halted() true with the halt still queued for replay")
	}
	if f.PC() != last[0].PC {
		t.Errorf("PC() = %d, want %d", f.PC(), last[0].PC)
	}
	var r Retired
	for range last {
		if err := f.StepCorrect(&r); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Halted() {
		t.Error("Halted() false after the halt replayed")
	}
}

// TestRewindSurvivesSpecSquash: the wrong-path overlay machinery must not
// disturb a pending rewind queue — branch recovery during replay relies on
// Squash leaving the queue intact.
func TestRewindSurvivesSpecSquash(t *testing.T) {
	f := NewFront(New(rewindProgram()))
	var r1, r2, got Retired
	if err := f.StepCorrect(&r1); err != nil {
		t.Fatal(err)
	}
	if err := f.StepCorrect(&r2); err != nil {
		t.Fatal(err)
	}
	f.Rewind([]Retired{r1, r2})

	f.EnterSpec()
	f.StepSpecAt(r1.PC, &got)
	f.Squash()
	if got := f.Rewinding(); got != 2 {
		t.Fatalf("Squash dropped the rewind queue: %d left, want 2", got)
	}
	if err := f.StepCorrect(&got); err != nil {
		t.Fatal(err)
	}
	if got != r1 {
		t.Errorf("replay after squash returned %+v, want %+v", got, r1)
	}
}
