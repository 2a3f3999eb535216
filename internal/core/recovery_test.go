package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/isa"
	"repro/internal/program"
)

// findPC returns the PC of the first instruction matching op and dest —
// the anchor the pinned-PC fault tests strike.
func findPC(t *testing.T, prog *program.Program, op isa.Op, dest isa.Reg) uint64 {
	t.Helper()
	for pc, in := range prog.Code {
		if in.Op == op && in.Dest == dest {
			return uint64(pc)
		}
	}
	t.Fatalf("no %v with dest r%d in %s", op, dest, prog.Name)
	return 0
}

// runInjected runs prog on cfg with the injector installed and the oracle
// check on: recovery must reach an architecturally correct final state, not
// merely finish.
func runInjected(t *testing.T, cfg Config, prog *program.Program, inj FaultInjector) *Core {
	t.Helper()
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(inj)
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
	return c
}

// TestRecoveryPerStream is the regression for the old commit() forgery
// (head.outSig = dupU.outSig): a fault confined to either stream — primary
// or shadow — must be detected and repaired by real re-execution, with the
// oracle confirming the architected stream. The forged agreement would have
// hidden the shadow-stream case entirely.
func TestRecoveryPerStream(t *testing.T) {
	prog := loopProgram(300)
	pc := findPC(t, prog, isa.OpAdd, 2)
	for _, dup := range []bool{false, true} {
		name := "primary"
		if dup {
			name = "shadow"
		}
		t.Run(name, func(t *testing.T) {
			inj := &fault.Persistent{Site: fault.FU, PC: pc, Dup: dup, Bit: 5, MaxFaults: 1}
			c := runInjected(t, quicken(BaseDIE()), prog, inj)
			if inj.Injected != 1 {
				t.Fatalf("injected %d faults, want 1", inj.Injected)
			}
			if c.Stats.FaultsDetected != 1 {
				t.Errorf("FaultsDetected = %d, want 1", c.Stats.FaultsDetected)
			}
			if c.Stats.FaultRecoveries != 1 {
				t.Errorf("FaultRecoveries = %d, want 1", c.Stats.FaultRecoveries)
			}
			if c.Stats.FaultRepairs != 1 {
				t.Errorf("FaultRepairs = %d, want 1", c.Stats.FaultRepairs)
			}
			if c.Stats.FaultsSilent != 0 {
				t.Errorf("FaultsSilent = %d, want 0", c.Stats.FaultsSilent)
			}
		})
	}
}

// TestRecoveryReExecutes pins the difference from the old stall model: a
// detection squashes the pair and everything younger, so the copies are
// dispatched (and the squash counter moves) strictly more than in a clean
// run, and the run still ends architecturally correct.
func TestRecoveryReExecutes(t *testing.T) {
	prog := loopProgram(800)
	clean := runVerified(t, quicken(BaseDIE()), prog)

	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 5e-3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	faulty := runInjected(t, quicken(BaseDIE()), prog, inj)
	if faulty.Stats.FaultsDetected == 0 {
		t.Fatal("no faults detected")
	}
	if faulty.Stats.FaultRecoveries == 0 {
		t.Fatal("detections triggered no recoveries")
	}
	if faulty.Stats.Cycles <= clean.Stats.Cycles {
		t.Errorf("faulty run (%d cycles, %d detections) not slower than clean (%d cycles)",
			faulty.Stats.Cycles, faulty.Stats.FaultsDetected, clean.Stats.Cycles)
	}
	if faulty.Stats.Dispatched <= clean.Stats.Dispatched {
		t.Errorf("faulty run dispatched %d copies, clean %d: recovery did not re-execute",
			faulty.Stats.Dispatched, clean.Stats.Dispatched)
	}
	if faulty.Stats.Squashed <= clean.Stats.Squashed {
		t.Errorf("faulty run squashed %d copies, clean %d: recovery did not flush",
			faulty.Stats.Squashed, clean.Stats.Squashed)
	}
}

// TestRecoveryMTTR checks the repair-window accounting: every detection
// opens a window that a later clean commit closes, so repairs match
// recoveries net of retries and the mean time to repair is at least the
// refetch round-trip.
func TestRecoveryMTTR(t *testing.T) {
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 5e-3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := runInjected(t, quicken(BaseDIE()), loopProgram(800), inj)
	if c.Stats.FaultRepairs == 0 {
		t.Fatal("no repairs recorded")
	}
	if c.Stats.FaultRepairs > c.Stats.FaultRecoveries {
		t.Errorf("repairs %d exceed recoveries %d", c.Stats.FaultRepairs, c.Stats.FaultRecoveries)
	}
	if mttr := c.Stats.MTTR(); mttr < 1 {
		t.Errorf("MTTR = %.2f cycles, want >= 1 (refetch takes at least a cycle)", mttr)
	}
}

// TestStuckIRBEntryScrubbed: a single corrupted IRB entry keeps serving
// hits — without scrubbing, its PC re-detects (and under real recovery,
// livelocks into escalation) on every reuse. Invalidation on the first
// detection makes it a one-detection event: the re-executed pair refreshes
// the buffer with a clean entry and reuse resumes.
func TestStuckIRBEntryScrubbed(t *testing.T) {
	prog := loopProgram(2000)
	pc := findPC(t, prog, isa.OpXor, 3) // invariant: reuse-hits every iteration
	inj := &fault.Persistent{Site: fault.IRBResult, PC: pc, Bit: 3, MaxFaults: 1}
	c := runInjected(t, quicken(BaseDIEIRB()), prog, inj)
	if inj.Injected != 1 {
		t.Fatalf("injected %d faults, want 1", inj.Injected)
	}
	if c.Stats.FaultsDetected != 1 {
		t.Errorf("FaultsDetected = %d, want exactly 1 (stuck entry not scrubbed?)",
			c.Stats.FaultsDetected)
	}
	if c.Stats.IRBScrubs != 1 {
		t.Errorf("IRBScrubs = %d, want 1", c.Stats.IRBScrubs)
	}
	if c.IRB().Stats.Invalidated != 1 {
		t.Errorf("IRB Invalidated = %d, want 1", c.IRB().Stats.Invalidated)
	}
	// Reuse must resume once the clean entry is reinserted.
	if c.Stats.IRBReuseHits < 100 {
		t.Errorf("only %d reuse hits after the scrub; reuse did not resume", c.Stats.IRBReuseHits)
	}
}

// TestPersistentFaultEscalates: a rate-1 stuck fault pinned to one PC
// defeats temporal redundancy — every re-execution fails the same way. The
// bounded retry budget must trip and surface a structured error instead of
// livelocking the run.
func TestPersistentFaultEscalates(t *testing.T) {
	prog := loopProgram(300)
	pc := findPC(t, prog, isa.OpAdd, 2)
	inj := &fault.Persistent{Site: fault.FU, PC: pc, Bit: 7}
	c, err := New(quicken(BaseDIE()), prog)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(inj)
	runErr := c.Run()
	var uf *UnrecoverableFaultError
	if !errors.As(runErr, &uf) {
		t.Fatalf("Run() = %v, want *UnrecoverableFaultError", runErr)
	}
	if uf.PC != pc {
		t.Errorf("escalated PC = %d, want %d", uf.PC, pc)
	}
	if uf.Retries != DefaultFaultRetryLimit {
		t.Errorf("Retries = %d, want the default limit %d", uf.Retries, DefaultFaultRetryLimit)
	}
	if c.Stats.FaultRecoveries != DefaultFaultRetryLimit {
		t.Errorf("FaultRecoveries = %d, want %d (budget exhausted)",
			c.Stats.FaultRecoveries, DefaultFaultRetryLimit)
	}
	if c.Stats.FaultRepairs != 0 {
		t.Errorf("FaultRepairs = %d, want 0 (the stuck instruction never committed)",
			c.Stats.FaultRepairs)
	}
}

// TestFaultRetryLimitConfigurable: a smaller budget escalates sooner.
func TestFaultRetryLimitConfigurable(t *testing.T) {
	prog := loopProgram(300)
	pc := findPC(t, prog, isa.OpAdd, 2)
	cfg := quicken(BaseDIE())
	cfg.FaultRetryLimit = 2
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(&fault.Persistent{Site: fault.FU, PC: pc, Bit: 7})
	var uf *UnrecoverableFaultError
	if runErr := c.Run(); !errors.As(runErr, &uf) {
		t.Fatalf("Run() = %v, want *UnrecoverableFaultError", runErr)
	}
	if uf.Retries != 2 {
		t.Errorf("Retries = %d, want 2", uf.Retries)
	}
	if cfg.FaultRetryLimit = -1; cfg.Validate() == nil {
		t.Error("negative FaultRetryLimit accepted")
	}
}

// TestRecoveryDeterministic: identical injected runs produce identical
// statistics, the property the campaign determinism tests build on.
func TestRecoveryDeterministic(t *testing.T) {
	run := func() Stats {
		inj, err := fault.New(fault.Config{Site: fault.Forward, Rate: 2e-3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return runInjected(t, quicken(BaseDIEIRB()), loopProgram(800), inj).Stats
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical faulty runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestRecoveryAcrossAllSites runs a sustained rate-1e-3 campaign at every
// injectable site on both dual modes — the acceptance sweep in miniature:
// completion with oracle-verified state and zero silent corruptions.
func TestRecoveryAcrossAllSites(t *testing.T) {
	for _, cfg := range []Config{quicken(BaseDIE()), quicken(BaseDIEIRB())} {
		for _, site := range fault.Sites() {
			if cfg.Mode == DIE && (site == fault.IRBResult || site == fault.IRBOperand) {
				continue // no IRB to strike
			}
			t.Run(string(cfg.Mode)+"/"+string(site), func(t *testing.T) {
				inj, err := fault.New(fault.Config{Site: site, Rate: 1e-3, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				c := runInjected(t, cfg, loopProgram(2000), inj)
				if c.Stats.FaultsSilent != 0 {
					t.Errorf("%d silent corruptions escaped the check", c.Stats.FaultsSilent)
				}
				if inj.Injected > 0 && site == fault.FU && c.Stats.FaultsDetected == 0 {
					t.Error("FU faults injected but none detected")
				}
			})
		}
	}
}
