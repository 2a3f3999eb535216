package core

import (
	"testing"

	"repro/internal/fsim"
	"repro/internal/isa"
	"repro/internal/program"
)

// loopProgram builds a program that runs a simple dependent-add loop n
// times: lots of single-cycle ALU work with perfect value reuse across
// iterations of the invariant instructions.
func loopProgram(n int64) *program.Program {
	b := program.NewBuilder("loop")
	b.LoadConst(1, n)
	b.LoadConst(5, 3)
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 2, 2, 5)    // r2 += 3
	b.EmitOp(isa.OpXor, 3, 5, 5)    // invariant: always 0
	b.EmitOp(isa.OpAnd, 4, 5, 5)    // invariant: always 3
	b.EmitImm(isa.OpAddi, 1, 1, -1) // r1--
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// memProgram exercises loads, stores and store-to-load forwarding.
func memProgram(n int) *program.Program {
	b := program.NewBuilder("mem")
	base := b.Array(64, func(i int) uint64 { return uint64(i) })
	b.LoadConst(1, int64(base)) // r1 = base
	b.LoadConst(2, int64(n))    // r2 = trip count
	b.Label("loop")
	b.EmitImm(isa.OpLoad, 3, 1, 0)                       // r3 = a[i]
	b.EmitImm(isa.OpAddi, 3, 3, 7)                       //
	b.Emit(isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 3}) // a[i] = r3
	b.EmitImm(isa.OpLoad, 4, 1, 0)                       // forwarded load
	b.EmitOp(isa.OpAdd, 5, 5, 4)
	b.EmitImm(isa.OpAddi, 1, 1, 8)
	b.EmitImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// branchyProgram has a data-dependent branch pattern that defeats the
// predictor part of the time plus calls and returns.
func branchyProgram(n int64) *program.Program {
	b := program.NewBuilder("branchy")
	b.LoadConst(1, n)
	b.LoadConst(6, 2654435761)
	b.Label("loop")
	b.EmitOp(isa.OpMul, 2, 1, 6) // pseudo-random
	b.EmitImm(isa.OpAddi, 7, 0, 13)
	b.EmitOp(isa.OpRem, 3, 2, 7)
	b.EmitImm(isa.OpAddi, 8, 0, 7)
	b.Branch(isa.OpBlt, 3, 8, "low")
	b.EmitOp(isa.OpAdd, 4, 4, 3)
	b.Jump("join")
	b.Label("low")
	b.Call("bump")
	b.Label("join")
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	b.Label("bump")
	b.EmitImm(isa.OpAddi, 4, 4, 1)
	b.Ret()
	return b.MustBuild()
}

// fpProgram mixes FP pipelines including long-latency divide/sqrt.
func fpProgram(n int64) *program.Program {
	b := program.NewBuilder("fp")
	b.LoadConst(1, n)
	b.EmitImm(isa.OpAddi, 2, 0, 3)
	b.EmitOp(isa.OpCvtIF, isa.FP0+1, 2, 0) // f1 = 3.0
	b.Label("loop")
	b.EmitOp(isa.OpFAdd, isa.FP0+2, isa.FP0+2, isa.FP0+1)
	b.EmitOp(isa.OpFMul, isa.FP0+3, isa.FP0+1, isa.FP0+1)
	b.EmitOp(isa.OpFDiv, isa.FP0+4, isa.FP0+3, isa.FP0+1)
	b.EmitOp(isa.OpFSqrt, isa.FP0+5, isa.FP0+3, 0)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// runVerified runs prog on a core with cfg and verifies the committed
// stream against an independent functional simulation, returning the core
// for stats inspection.
func runVerified(t *testing.T, cfg Config, prog *program.Program) *Core {
	t.Helper()
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	oracle := fsim.New(prog)
	c.OnCommit = func(rec *fsim.Retired) {
		var want fsim.Retired
		if err := oracle.Step(&want); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if rec.Seq != want.Seq || rec.PC != want.PC || rec.Result != want.Result ||
			rec.NextPC != want.NextPC || rec.Addr != want.Addr {
			t.Fatalf("commit diverged from oracle:\n got %+v\nwant %+v", rec, want)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !oracle.Halted && cfg.MaxInsns == 0 {
		t.Fatal("core halted before oracle")
	}
	return c
}

// quicken shrinks the simulation bounds for unit tests.
func quicken(cfg Config) Config {
	cfg.MaxCycles = 5_000_000
	return cfg
}

func allPrograms() []*program.Program {
	return []*program.Program{
		loopProgram(300),
		memProgram(100),
		branchyProgram(300),
		fpProgram(100),
	}
}

func allModes() []Config {
	out := make([]Config, 0, len(Modes()))
	for _, mi := range Modes() {
		out = append(out, quicken(mi.Base()))
	}
	return out
}

// TestAllModesMatchOracle is the master architectural-correctness test:
// every mode must retire exactly the functional execution of every test
// program.
func TestAllModesMatchOracle(t *testing.T) {
	for _, prog := range allPrograms() {
		for _, cfg := range allModes() {
			t.Run(prog.Name+"/"+string(cfg.Mode), func(t *testing.T) {
				c := runVerified(t, cfg, prog)
				if c.Stats.Committed == 0 {
					t.Fatal("nothing committed")
				}
			})
		}
	}
}

func TestSIEFasterThanDIE(t *testing.T) {
	for _, prog := range allPrograms() {
		sie := runVerified(t, quicken(BaseSIE()), prog)
		die := runVerified(t, quicken(BaseDIE()), prog)
		if die.Stats.IPC() > sie.Stats.IPC()*1.01 {
			t.Errorf("%s: DIE IPC %.3f exceeds SIE IPC %.3f", prog.Name, die.Stats.IPC(), sie.Stats.IPC())
		}
		if die.Stats.Cycles < sie.Stats.Cycles {
			t.Errorf("%s: DIE finished in fewer cycles (%d) than SIE (%d)",
				prog.Name, die.Stats.Cycles, sie.Stats.Cycles)
		}
	}
}

// TestDIEIRBRecoversIPC is the headline behaviour: on reuse-friendly code,
// DIE-IRB must land between DIE and SIE.
func TestDIEIRBRecoversIPC(t *testing.T) {
	prog := loopProgram(2000)
	sie := runVerified(t, quicken(BaseSIE()), prog).Stats.IPC()
	die := runVerified(t, quicken(BaseDIE()), prog).Stats.IPC()
	irbC := runVerified(t, quicken(BaseDIEIRB()), prog)
	irbIPC := irbC.Stats.IPC()
	if die >= sie {
		t.Fatalf("expected DIE (%.3f) < SIE (%.3f) on ALU-bound loop", die, sie)
	}
	if irbIPC <= die {
		t.Errorf("DIE-IRB IPC %.3f did not beat DIE %.3f", irbIPC, die)
	}
	if irbC.Stats.IRBReuseHits == 0 {
		t.Error("no reuse hits on a reuse-friendly loop")
	}
}

func TestDupStreamSkipsFUsOnReuse(t *testing.T) {
	c := runVerified(t, quicken(BaseDIEIRB()), loopProgram(2000))
	total := c.Stats.IRBReuseHits + c.Stats.DupFUExec
	if total == 0 {
		t.Fatal("no duplicate executions recorded")
	}
	// Two of the five loop-body instructions (the xor and and on the
	// invariant r5) repeat with identical operands every iteration, so
	// the steady-state reuse fraction is 2/5.
	frac := float64(c.Stats.IRBReuseHits) / float64(total)
	if frac < 0.35 || frac > 0.45 {
		t.Errorf("reuse fraction %.2f outside the expected 0.40 band", frac)
	}
}

func TestDIEDoublesDynamicInstructions(t *testing.T) {
	prog := loopProgram(200)
	die := runVerified(t, quicken(BaseDIE()), prog)
	if die.Stats.CopiesCommitted != 2*die.Stats.Committed {
		t.Errorf("copies %d != 2x architected %d", die.Stats.CopiesCommitted, die.Stats.Committed)
	}
	sie := runVerified(t, quicken(BaseSIE()), prog)
	if sie.Stats.CopiesCommitted != sie.Stats.Committed {
		t.Errorf("SIE copies %d != architected %d", sie.Stats.CopiesCommitted, sie.Stats.Committed)
	}
	if sie.Stats.Committed != die.Stats.Committed {
		t.Errorf("architected instruction counts differ: %d vs %d", sie.Stats.Committed, die.Stats.Committed)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	c := runVerified(t, quicken(BaseSIE()), memProgram(200))
	if c.Stats.LoadForwarded == 0 {
		t.Error("no forwarded loads in a store/reload loop")
	}
	if c.Stats.Loads == 0 || c.Stats.Stores == 0 {
		t.Errorf("memory ops missing: %d loads, %d stores", c.Stats.Loads, c.Stats.Stores)
	}
}

func TestBranchRecovery(t *testing.T) {
	c := runVerified(t, quicken(BaseSIE()), branchyProgram(500))
	if c.Stats.Mispredicts == 0 {
		t.Error("pseudo-random branches never mispredicted")
	}
	if c.Stats.WrongPath == 0 {
		t.Error("no wrong-path instructions dispatched")
	}
	if c.Stats.Squashed == 0 {
		t.Error("no squashes recorded")
	}
}

func TestMoreALUsHelpDIE(t *testing.T) {
	prog := loopProgram(2000)
	die := runVerified(t, quicken(BaseDIE()), prog).Stats.IPC()
	die2x := runVerified(t, quicken(BaseDIE().WithDoubledALUs()), prog).Stats.IPC()
	if die2x <= die {
		t.Errorf("2xALU DIE IPC %.3f not above DIE %.3f on ALU-bound loop", die2x, die)
	}
}

func TestMaxInsnsStopsEarly(t *testing.T) {
	cfg := quicken(BaseSIE())
	cfg.MaxInsns = 50
	c, err := New(cfg, loopProgram(10000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Committed != 50 {
		t.Errorf("committed %d, want 50", c.Stats.Committed)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	bad := BaseSIE()
	bad.RUUSize = 0
	if _, err := New(bad, loopProgram(1)); err == nil {
		t.Error("accepted zero RUU")
	}
	bad2 := BaseSIE()
	bad2.Mode = "NMR-9" // not a registered mode
	if _, err := New(bad2, loopProgram(1)); err == nil {
		t.Error("accepted unknown mode")
	}
	bad4 := baseConfig(TMR)
	bad4.VoteWidth = 4 // even vote widths cannot break ties
	if _, err := New(bad4, loopProgram(1)); err == nil {
		t.Error("accepted even vote width")
	}
	bad5 := BaseDIE()
	bad5.ReplayEpoch = 128 // knob only meaningful in REPLAY mode
	if _, err := New(bad5, loopProgram(1)); err == nil {
		t.Error("accepted ReplayEpoch on a non-replay mode")
	}
	bad3 := BaseDIEIRB()
	bad3.IRB.Entries = 3
	if _, err := New(bad3, loopProgram(1)); err == nil {
		t.Error("accepted invalid IRB config")
	}
}

func TestDeterminism(t *testing.T) {
	prog := branchyProgram(300)
	run := func() Stats {
		c, err := New(quicken(BaseDIEIRB()), prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestIRBInsertsHappenAtCommit(t *testing.T) {
	c := runVerified(t, quicken(BaseDIEIRB()), loopProgram(500))
	st := c.IRB().Stats
	if st.Inserts == 0 {
		t.Fatal("no IRB inserts")
	}
	if st.Lookups == 0 || st.PCHits == 0 {
		t.Errorf("IRB traffic missing: %+v", st)
	}
}

func TestSIEIRBReusesToo(t *testing.T) {
	cfg := quicken(BaseSIE())
	cfg.Mode = SIEIRB
	c := runVerified(t, cfg, loopProgram(1000))
	if c.Stats.IRBReuseHits == 0 {
		t.Error("SIE-IRB made no reuse hits")
	}
}

func TestRingSquash(t *testing.T) {
	r := newRing(8)
	if r.cap() != 8 || r.len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", r.cap(), r.len())
	}
	mk := func(seq uint64) *uop { return &uop{seq: seq} }
	for i := uint64(1); i <= 5; i++ {
		r.push(mk(i))
	}
	var freed int
	if n := r.squashYoungerThan(3, func(*uop) { freed++ }); n != 2 {
		t.Errorf("squashed %d, want 2", n)
	}
	if r.len() != 3 {
		t.Errorf("len = %d, want 3", r.len())
	}
	if freed != 2 {
		t.Errorf("free callback ran %d times, want 2", freed)
	}
	u := r.popHead()
	if u.seq != 1 {
		t.Errorf("head seq = %d, want 1", u.seq)
	}
	// Push after squash reuses the freed space.
	for i := uint64(10); i < 16; i++ {
		r.push(mk(i))
	}
	if r.free() != 0 {
		t.Errorf("free = %d, want 0", r.free())
	}
}

func TestOutSignature(t *testing.T) {
	// ALU
	rec := fsim.Retired{PC: 10, Instr: isa.Instr{Op: isa.OpAdd, Dest: 1, Src1: 2, Src2: 3}}
	if got := outSignature(&rec, 4, 5); got != 9 {
		t.Errorf("add sig = %d, want 9", got)
	}
	// Store folds the data value into the signature.
	st := fsim.Retired{PC: 10, Instr: isa.Instr{Op: isa.OpStore, Src1: 1, Src2: 2}}
	a := outSignature(&st, 100, 7)
	bSig := outSignature(&st, 100, 8)
	if a == bSig {
		t.Error("store signature ignores data value")
	}
	// Branch encodes direction and target.
	br := fsim.Retired{PC: 10, Instr: isa.Instr{Op: isa.OpBeq, Src1: 1, Src2: 2, Imm: 5}}
	taken := outSignature(&br, 3, 3)
	notTaken := outSignature(&br, 3, 4)
	if taken == notTaken {
		t.Error("branch signature ignores direction")
	}
	if taken != 15*2+1 {
		t.Errorf("taken sig = %d, want %d", taken, 15*2+1)
	}
	// Memory ops: effective address.
	ld := fsim.Retired{PC: 10, Instr: isa.Instr{Op: isa.OpLoad, Dest: 1, Src1: 2, Imm: 8}}
	if got := outSignature(&ld, 96, 0); got != 104 {
		t.Errorf("load sig = %d, want 104", got)
	}
}

func TestFUPoolOccupancy(t *testing.T) {
	var counts [isa.NumFUClasses]int
	counts[isa.FUIntMult] = 1
	p := newFUPool(counts)
	if !p.alloc(isa.FUIntMult, 10, occupancy(isa.OpDiv)) {
		t.Fatal("first div denied")
	}
	// Divider busy for 20 cycles.
	if p.alloc(isa.FUIntMult, 11, 1) {
		t.Error("divider double-booked")
	}
	if !p.alloc(isa.FUIntMult, 30, 1) {
		t.Error("divider not released")
	}
}

func TestOccupancy(t *testing.T) {
	if occupancy(isa.OpAdd) != 1 || occupancy(isa.OpMul) != 1 {
		t.Error("pipelined op occupancy != 1")
	}
	if occupancy(isa.OpDiv) != 20 || occupancy(isa.OpFSqrt) != 24 {
		t.Error("non-pipelined occupancy wrong")
	}
}

func TestNewAtRejectsHaltedMachine(t *testing.T) {
	prog := loopProgram(5)
	m := fsim.New(prog)
	if _, err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAt(quicken(BaseSIE()), m); err == nil {
		t.Error("NewAt accepted a halted machine")
	}
}

func TestNewAtResumesMidProgram(t *testing.T) {
	prog := loopProgram(500)
	m := fsim.New(prog)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	c, err := NewAt(quicken(BaseSIE()), m)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle must also start from instruction 101.
	oracle := fsim.New(prog)
	oracle.Run(100)
	c.OnCommit = func(rec *fsim.Retired) {
		var want fsim.Retired
		if oerr := oracle.Step(&want); oerr != nil || rec.Seq != want.Seq || rec.Result != want.Result {
			t.Fatalf("mid-program resume diverged at seq %d", rec.Seq)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Committed == 0 {
		t.Fatal("nothing committed after resume")
	}
}
