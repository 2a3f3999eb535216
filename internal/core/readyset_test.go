package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/program"
)

// checkReadySet asserts the issue window's ready-set invariant: RUU buffer
// slot i's bit is set exactly when the slot holds a uWaiting uop with no
// pending producer, and every uop records the slot it occupies.
func checkReadySet(t *testing.T, c *Core) {
	t.Helper()
	want := make([]uint64, len(c.ready))
	for i := 0; i < c.ruu.len(); i++ {
		u, slot := c.ruu.at(i), c.ruu.idx(i)
		if u.slot != slot {
			t.Fatalf("cycle %d: uop seq %d in slot %d records slot %d", c.cycle, u.seq, slot, u.slot)
		}
		if u.state == uWaiting && u.waitCount == 0 {
			want[slot>>6] |= 1 << (slot & 63)
		}
	}
	for w := range want {
		if diff := want[w] ^ c.ready[w]; diff != 0 {
			t.Fatalf("cycle %d: ready set word %d = %#x, want %#x (slots differing: %#x)",
				c.cycle, w, c.ready[w], want[w], diff)
		}
	}
}

// tickChecked runs prog on cfg by calling Tick directly, checking the
// ready-set invariant after every cycle.
func tickChecked(t *testing.T, cfg Config, prog *program.Program, inj FaultInjector) *Core {
	t.Helper()
	c, err := New(quicken(cfg), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if inj != nil {
		c.SetInjector(inj)
	}
	for !c.done {
		c.Tick()
		checkReadySet(t, c)
		if c.cycle > 2_000_000 {
			t.Fatalf("no halt after %d cycles", c.cycle)
		}
	}
	if c.abortErr != nil {
		t.Fatal(c.abortErr)
	}
	return c
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
				c := tickChecked(t, k.cfg, prog, inj)
				mispredicts += c.Stats.Mispredicts
				faultRecoveries += c.Stats.FaultRecoveries
				reuseHits += c.Stats.IRBReuseHits
			})
		}
	}
	// Non-vacuity: both recovery paths and reuse completions ran.
	if mispredicts == 0 || faultRecoveries == 0 || reuseHits == 0 {
		t.Errorf("mispredicts %d, fault recoveries %d, reuse hits %d: want all > 0",
			mispredicts, faultRecoveries, reuseHits)
	}
}
