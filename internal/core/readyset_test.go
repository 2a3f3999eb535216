package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/program"
	"repro/internal/workload"
)

// checkReadySet asserts the issue window's ready-set invariant: RUU buffer
// slot i's bit is set exactly when the slot holds a uWaiting uop with no
// pending producer, and every uop records the slot it occupies. It also
// holds each occupied slot's select state to its uop: the shadow bit to
// the copy's stream, the IRB-untested bit to a PC hit whose reuse test has
// not run, the class to the copy's functional unit class, and readyAt to
// the window dispatch and wakeup can write — at least the cycle after
// dispatch, at most two cycles past the current one (a reuse hit's
// one-cycle-late broadcast plus the inter-cluster cycle). Every copy's
// record is its group's one record, Core.recs at the slot of the group's
// primary, which no other group in flight shares.
func checkReadySet(t *testing.T, c *Core) {
	t.Helper()
	want := make([]uint64, len(c.ready))
	recOwner := map[*fsim.Retired]uint64{} // record -> seq of its group's primary
	for i := 0; i < c.ruu.len(); i++ {
		u, slot := c.ruu.at(i), c.ruu.idx(i)
		if u.slot != slot {
			t.Fatalf("cycle %d: uop seq %d in slot %d records slot %d", c.cycle, u.seq, slot, u.slot)
		}
		primary := u
		for primary.dup {
			primary = primary.pair
		}
		if u.rec != &c.recs[primary.slot] {
			t.Fatalf("cycle %d: uop seq %d's record is not the one at its primary's slot %d", c.cycle, u.seq, primary.slot)
		}
		if owner, ok := recOwner[u.rec]; ok && owner != primary.seq {
			t.Fatalf("cycle %d: the groups of seq %d and seq %d share a record", c.cycle, owner, primary.seq)
		}
		recOwner[u.rec] = primary.seq
		if u.state == uWaiting && u.waitCount == 0 {
			want[slot>>6] |= 1 << (slot & 63)
		}
		k, bit := slot>>6, uint64(1)<<(slot&63)
		if got := c.shadow[k]&bit != 0; got != u.dup {
			t.Fatalf("cycle %d: slot %d shadow bit %v, uop seq %d dup %v", c.cycle, slot, got, u.seq, u.dup)
		}
		if got, want := c.irbUntested[k]&bit != 0, u.irbPCHit && !u.irbTested; got != want {
			t.Fatalf("cycle %d: slot %d IRB-untested bit %v, uop seq %d PC hit %v tested %v",
				c.cycle, slot, got, u.seq, u.irbPCHit, u.irbTested)
		}
		if got, want := c.class[slot], u.rec.Instr.Op.Info().Class; got != want {
			t.Fatalf("cycle %d: slot %d class %v, uop seq %d class %v", c.cycle, slot, got, u.seq, want)
		}
		if at := c.readyAt[slot]; at < u.dispatchCycle+1 || at > c.cycle+2 {
			t.Fatalf("cycle %d: slot %d readyAt %d outside [%d, %d] for uop seq %d",
				c.cycle, slot, at, u.dispatchCycle+1, c.cycle+2, u.seq)
		}
	}
	for w := range want {
		if diff := want[w] ^ c.ready[w]; diff != 0 {
			t.Fatalf("cycle %d: ready set word %d = %#x, want %#x (slots differing: %#x)",
				c.cycle, w, c.ready[w], want[w], diff)
		}
	}
}

// tickCounts tallies the Ticks of a run that advanced more than one cycle.
type tickCounts struct {
	idleSkips, stallJumps uint64
}

// tickChecked runs prog on cfg by calling Tick directly, checking the
// ready-set invariant after every Tick. A Tick that advanced more than one
// cycle must be a REPLAY stall that ended exactly at its last stalled
// cycle, or an idle skip that passed over nothing: the ready set is empty,
// no pending event is due at or before the new cycle, and a fetch stall
// that was running ends after it.
func tickChecked(t *testing.T, cfg Config, prog *program.Program, inj FaultInjector) (*Core, tickCounts) {
	t.Helper()
	c, err := New(quicken(cfg), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if inj != nil {
		c.SetInjector(inj)
	}
	var n tickCounts
	for !c.done {
		prev := c.cycle
		stalled := prev+1 <= c.stallUntil
		c.Tick()
		checkReadySet(t, c)
		if c.cycle > prev+1 {
			if stalled {
				n.stallJumps++
				if c.cycle != c.stallUntil {
					t.Fatalf("REPLAY stall from cycle %d ended at %d, want %d", prev+1, c.cycle, c.stallUntil)
				}
			} else {
				n.idleSkips++
				checkIdleSkip(t, c, prev+1)
			}
		}
		if c.cycle > 2_000_000 {
			t.Fatalf("no halt after %d cycles", c.cycle)
		}
	}
	if c.abortErr != nil {
		t.Fatal(c.abortErr)
	}
	return c, n
}

// checkIdleSkip asserts that a Tick that ran cycle `from` and then moved
// on to c.cycle skipped only cycles in which nothing could happen.
func checkIdleSkip(t *testing.T, c *Core, from uint64) {
	t.Helper()
	for w, word := range c.ready {
		if word != 0 {
			t.Fatalf("skip %d -> %d with ready set word %d = %#x", from, c.cycle, w, word)
		}
	}
	for _, e := range c.events {
		if e.cycle <= c.cycle {
			t.Fatalf("skip %d -> %d passed over an event due at cycle %d", from, c.cycle, e.cycle)
		}
	}
	if !c.fetchStopped && c.fetchStallUntil > from && c.fetchStallUntil <= c.cycle {
		t.Fatalf("skip %d -> %d passed over the fetch stall's end at cycle %d", from, c.cycle, c.fetchStallUntil)
	}
	if (c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles) || c.cycle > c.lastCommitCycle+deadlockWindow {
		t.Fatalf("skip %d -> %d passed a Run limit (MaxCycles %d, last commit %d)",
			from, c.cycle, c.cfg.MaxCycles, c.lastCommitCycle)
	}
}

// TestReadySetInvariant drives every registered mode, the decoupled and
// clustered schedulers and IRB dependence chaining over the random
// programs, fault-free and under injection campaigns, so the set is
// checked across dispatch, wakeup, issue, reuse completion, branch
// recovery and fault-recovery flushes.
func TestReadySetInvariant(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
		site fault.Site
	}
	var cases []tc
	for _, mi := range Modes() {
		cases = append(cases, tc{name: string(mi.Mode), cfg: mi.Base()})
		if !mi.Caps.Detects {
			continue
		}
		sites := []fault.Site{fault.FU, fault.Forward}
		if mi.Caps.UsesIRB {
			sites = append(sites, fault.IRBResult, fault.IRBOperand)
		}
		for _, s := range sites {
			cases = append(cases, tc{name: string(mi.Mode) + "/" + string(s), cfg: mi.Base(), site: s})
		}
	}
	chainSIE := BaseSIE()
	chainSIE.Mode = SIEIRB
	chainSIE.IRBChaining = true
	chainDIE := BaseDIEIRB()
	chainDIE.IRBChaining = true
	cluFault := clusteredCfg()
	cases = append(cases,
		tc{name: "decoupled", cfg: decoupledCfg()},
		tc{name: "clustered", cfg: clusteredCfg()},
		tc{name: "clustered/fu", cfg: cluFault, site: fault.FU},
		tc{name: "SIE-IRB+chain", cfg: chainSIE},
		tc{name: "DIE-IRB+chain", cfg: chainDIE},
		tc{name: "DIE-IRB+chain/irb-result", cfg: chainDIE, site: fault.IRBResult},
	)

	var mispredicts, faultRecoveries, reuseHits uint64
	var ticks tickCounts
	for _, seed := range []uint64{1, 2, 3} {
		prog := randomProgram(seed)
		for _, k := range cases {
			t.Run(fmt.Sprintf("seed%d/%s", seed, k.name), func(t *testing.T) {
				var inj FaultInjector
				if k.site != "" {
					fi, err := fault.New(fault.Config{Site: k.site, Rate: 2e-3, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					inj = fi
				}
				c, n := tickChecked(t, k.cfg, prog, inj)
				mispredicts += c.Stats.Mispredicts
				faultRecoveries += c.Stats.FaultRecoveries
				reuseHits += c.Stats.IRBReuseHits
				ticks.idleSkips += n.idleSkips
				ticks.stallJumps += n.stallJumps
			})
		}
	}
	// Non-vacuity: both recovery paths, reuse completions, idle skips and
	// REPLAY stall jumps ran.
	if mispredicts == 0 || faultRecoveries == 0 || reuseHits == 0 || ticks.idleSkips == 0 || ticks.stallJumps == 0 {
		t.Errorf("mispredicts %d, fault recoveries %d, reuse hits %d, idle skips %d, stall jumps %d: want all > 0",
			mispredicts, faultRecoveries, reuseHits, ticks.idleSkips, ticks.stallJumps)
	}
}

// TestMaxCyclesStopsAtLimit: Run fails at the first cycle past MaxCycles
// however many cycles a Tick skips. mcf's memory stalls leave most
// cycles idle, so an uncapped skip would run well past the limit.
func TestMaxCyclesStopsAtLimit(t *testing.T) {
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("profile mcf missing")
	}
	prog, err := workload.Generate(p.WithIters(10_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range Modes() {
		t.Run(string(mi.Mode), func(t *testing.T) {
			cfg := mi.Base()
			cfg.MaxCycles = 3001
			c, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Release()
			err = c.Run()
			if err == nil || !strings.Contains(err.Error(), "exceeded 3001 cycles") {
				t.Fatalf("Run() = %v, want the 3001-cycle limit error", err)
			}
			if got := c.Cycle(); got != 3002 {
				t.Errorf("Cycle() = %d after the limit error, want 3002", got)
			}
		})
	}
}
