package core

import (
	"testing"
)

// steadyStateAllocsPerInstr measures the amortized heap allocations per
// committed instruction of a full run on cfg, after one warm-up run has
// populated the shared scratch pool. The construction cost (RUU ring,
// caches, predictor tables) is real but one-time; the budget below guards
// the per-instruction pipeline path — dispatch, issue, writeback, commit —
// which the uop free list and the unboxed event heap keep allocation-free.
func steadyStateAllocsPerInstr(t *testing.T, cfg Config) float64 {
	t.Helper()
	prog := loopProgram(2_000)
	run := func() uint64 {
		c, err := New(quicken(cfg), prog)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release()
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Stats.Committed
	}
	committed := run() // warm-up: fill the scratch pool, fault in code paths
	if committed == 0 {
		t.Fatal("no instructions committed")
	}
	allocs := testing.AllocsPerRun(5, func() { run() })
	return allocs / float64(committed)
}

// TestAllocBudgetPerInstruction locks in the zero-allocation pipeline: a
// steady-state run must stay far below one allocation per committed
// instruction in every mode (the pre-free-list core spent ~6). The bound
// of 0.02 leaves room only for construction-time and incidental setup
// allocations amortized over the run, not per-instruction garbage.
func TestAllocBudgetPerInstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector pool dropping distorts allocation accounting")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"SIE", BaseSIE()},
		{"DIE", BaseDIE()},
		{"DIE-IRB", BaseDIEIRB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const budget = 0.02
			if got := steadyStateAllocsPerInstr(t, tc.cfg); got > budget {
				t.Errorf("%.4f allocs per committed instruction, budget %.4f", got, budget)
			}
		})
	}
}

// TestScratchPoolReuse verifies Release actually recycles: two sequential
// runs must reuse the pooled event heap and uop arena, so
// the second run allocates no new uop chunks.
func TestScratchPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	prog := loopProgram(500)
	c, err := New(quicken(BaseDIE()), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	arena := len(c.freeUops)
	if arena == 0 {
		t.Fatal("run left no recycled uops in the free list")
	}
	c.Release()
	c2, err := New(quicken(BaseDIE()), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	// The pool is per-P best-effort, but in a single-goroutine test the
	// scratch released above is the one Get returns.
	if len(c2.freeUops) == 0 {
		t.Error("second core did not inherit the pooled uop arena")
	}
	if err := c2.Run(); err != nil {
		t.Fatal(err)
	}
}
