package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/irb"
)

// The batch machinery's contract rests on the stock injectors being
// batchable; assert it at compile time where the dependency direction
// allows (fault deliberately does not import core outside its tests).
var (
	_ core.BatchableInjector = (*fault.Injector)(nil)
	_ core.BatchableInjector = (*fault.Persistent)(nil)
)

// rawInjector implements core.FaultInjector but not BatchableInjector.
type rawInjector struct{}

func (rawInjector) FUResult(seq, pc uint64, dup bool, sig uint64) uint64           { return sig }
func (rawInjector) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 { return val }
func (rawInjector) AfterIRBInsert(pc uint64, b *irb.IRB)                           {}

// TestBatchFaultFreeLaneMatchesScalar: a batch whose only lane carries no
// injector is exactly a scalar run — the leader's probing layer must be
// invisible in every statistic.
func TestBatchFaultFreeLaneMatchesScalar(t *testing.T) {
	p := gzipProfile(t)
	opts := Options{Insns: 12_000, Verify: true}
	want, err := Run("DIE-IRB", core.BaseDIEIRB(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunBatchContext(nil, "DIE-IRB", core.BaseDIEIRB(), p, opts, []BatchLane{{Name: "DIE-IRB"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Diverged {
		t.Fatalf("outcomes = %+v, want one convergent lane", outs)
	}
	if !reflect.DeepEqual(outs[0].Result, want) {
		t.Errorf("batched fault-free lane differs from scalar run:\nbatch:  %+v\nscalar: %+v",
			outs[0].Result, want)
	}
}

// laneSpec is one injector lane of the differential test grid: rates are
// chosen so the grid exercises both convergent lanes (which the batch
// serves directly) and diverged lanes (which re-run scalar after Reset).
type laneSpec struct {
	site fault.Site
	rate float64
	seed uint64
}

// TestBatchLaneBitIdentityAllModes is the tentpole's acceptance
// differential, driven from the mode registry so a newly registered mode
// is covered without touching this test: for every mode, every batch
// lane's terminal state — Result and injector fault count — must be
// bit-identical to the lane's own scalar run with a fresh injector.
// Diverged lanes take the production fallback path (Reset, then a scalar
// run with the same injector object), so the test also proves Reset
// restores fresh-injector equivalence.
func TestBatchLaneBitIdentityAllModes(t *testing.T) {
	p := gzipProfile(t)
	specs := []laneSpec{
		{fault.FU, 1e-6, 11}, // almost surely convergent
		{fault.FU, 2e-3, 12}, // almost surely diverged
		{fault.Forward, 1e-3, 13},
		{fault.IRBResult, 1e-3, 14}, // exercises the scratch-IRB probe on IRB modes
	}
	opts := Options{Insns: 6_000, Verify: true}
	var convergent, diverged int
	for _, mi := range core.Modes() {
		cfg := mi.Base()
		lanes := []BatchLane{{Name: fmt.Sprintf("%s/clean", mi.Mode)}}
		injs := []*fault.Injector{nil}
		for _, s := range specs {
			inj, err := fault.New(fault.Config{Site: s.site, Rate: s.rate, Seed: s.seed})
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, BatchLane{
				Name:     fmt.Sprintf("%s/%s-%d", mi.Mode, s.site, s.seed),
				Injector: inj,
			})
			injs = append(injs, inj)
		}
		outs, err := RunBatchContext(nil, "lead", cfg, p, opts, lanes)
		if err != nil {
			t.Fatalf("%s: batch run failed: %v", mi.Mode, err)
		}
		for i, out := range outs {
			// The scalar reference uses a fresh injector with the identical
			// campaign spec; the batch lane must be indistinguishable from it.
			var ref *fault.Injector
			refOpts := opts
			if injs[i] != nil {
				ref, err = fault.New(fault.Config{
					Site: specs[i-1].site, Rate: specs[i-1].rate, Seed: specs[i-1].seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				refOpts.Injector = ref
			}
			want, err := Run(lanes[i].Name, cfg, p, refOpts)
			if err != nil {
				t.Fatalf("%s lane %d: scalar reference failed: %v", mi.Mode, i, err)
			}
			got := out.Result
			if out.Diverged {
				diverged++
				// Production fallback: Reset and re-run scalar with the same
				// injector object the batch consumed.
				laneOpts := opts
				injs[i].Reset()
				laneOpts.Injector = injs[i]
				got, err = Run(lanes[i].Name, cfg, p, laneOpts)
				if err != nil {
					t.Fatalf("%s lane %d: scalar re-run failed: %v", mi.Mode, i, err)
				}
			} else {
				convergent++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s lane %q: batched result differs from scalar:\nbatch:  %+v\nscalar: %+v",
					mi.Mode, lanes[i].Name, got, want)
			}
			if injs[i] != nil && injs[i].Injected != ref.Injected {
				t.Errorf("%s lane %q: injector fired %d faults, scalar reference %d",
					mi.Mode, lanes[i].Name, injs[i].Injected, ref.Injected)
			}
		}
	}
	if convergent == 0 || diverged == 0 {
		t.Errorf("grid exercised %d convergent / %d diverged lanes; want both paths covered",
			convergent, diverged)
	}
}

// TestBatchLastLaneRidesLeader: in a batch with no fault-free lane, the
// lanes whose injectors fire are evicted until one is left, and that lane
// rides the leader to the end — its strikes applied to the live values and
// the real IRB — so it converges with exactly its scalar run's result and
// fire count, while the evicted lanes re-run scalar as usual.
func TestBatchLastLaneRidesLeader(t *testing.T) {
	p := gzipProfile(t)
	opts := Options{Insns: 10_000, Verify: true}
	// The IRB sites strike at a higher rate: most IRB strikes hit entries
	// that are never reused, and a riding lane's strike must show in its
	// result for the test to tell the live IRB from the scratch one.
	for _, tc := range []struct {
		mode core.Mode
		cfg  core.Config
		site fault.Site
		rate float64
	}{
		{core.DIE, core.BaseDIE(), fault.FU, 2e-3},
		{core.DIE, core.BaseDIE(), fault.Forward, 2e-3},
		{core.DIEIRB, core.BaseDIEIRB(), fault.IRBResult, 1e-2},
		{core.DIEIRB, core.BaseDIEIRB(), fault.IRBOperand, 1e-2},
	} {
		spec := func(seed uint64) fault.Config {
			return fault.Config{Site: tc.site, Rate: tc.rate, Seed: seed}
		}
		var lanes []BatchLane
		var injs []*fault.Injector
		for seed := uint64(1); seed <= 3; seed++ {
			inj, err := fault.New(spec(seed))
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, BatchLane{Name: fmt.Sprintf("%s/%s-%d", tc.mode, tc.site, seed), Injector: inj})
			injs = append(injs, inj)
		}
		outs, err := RunBatchContext(nil, string(tc.mode), tc.cfg, p, opts, lanes)
		if err != nil {
			t.Fatalf("%s@%s: batch run failed: %v", tc.mode, tc.site, err)
		}
		riders := 0
		for i, out := range outs {
			if out.Diverged {
				continue
			}
			riders++
			ref, err := fault.New(spec(uint64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			refOpts := opts
			refOpts.Injector = ref
			want, err := Run(lanes[i].Name, tc.cfg, p, refOpts)
			if err != nil {
				t.Fatalf("%s: scalar reference failed: %v", lanes[i].Name, err)
			}
			if !reflect.DeepEqual(out.Result, want) {
				t.Errorf("%s: riding lane differs from its scalar run:\nbatch:  %+v\nscalar: %+v",
					lanes[i].Name, out.Result, want)
			}
			if ref.Injected == 0 || injs[i].Injected != ref.Injected {
				t.Errorf("%s: riding lane fired %d faults, its scalar run %d (want equal and nonzero)",
					lanes[i].Name, injs[i].Injected, ref.Injected)
			}
		}
		if riders != 1 {
			t.Errorf("%s@%s: %d convergent lanes, want exactly the one riding lane", tc.mode, tc.site, riders)
		}
	}
}

// TestRunBatchMisuse: the batch entry point rejects malformed lane sets
// with ErrBatchMisuse rather than producing a half-configured run.
func TestRunBatchMisuse(t *testing.T) {
	p := gzipProfile(t)
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunBatchContext(nil, "DIE", core.BaseDIE(), p,
		Options{Insns: 1_000, Injector: inj}, []BatchLane{{Name: "x"}})
	if !errors.Is(err, ErrBatchMisuse) {
		t.Errorf("Options.Injector on a batch run: err = %v, want ErrBatchMisuse", err)
	}
	_, err = RunBatchContext(nil, "DIE", core.BaseDIE(), p, Options{Insns: 1_000}, nil)
	if !errors.Is(err, ErrBatchMisuse) {
		t.Errorf("zero lanes: err = %v, want ErrBatchMisuse", err)
	}
	_, err = RunBatchContext(nil, "DIE", core.BaseDIE(), p, Options{Insns: 1_000},
		[]BatchLane{{Name: "raw", Injector: rawInjector{}}})
	if err == nil {
		t.Error("non-batchable injector lane accepted")
	}
}

// countingInjector is a fault.Injector that counts the opportunities it
// is offered for real, one counter per kind: FUResult, Operand and
// AfterIRBInsert. Quiet calls are not counted.
type countingInjector struct {
	*fault.Injector
	calls [3]int
}

func (c *countingInjector) FUResult(seq, pc uint64, dup bool, sig uint64) uint64 {
	c.calls[0]++
	return c.Injector.FUResult(seq, pc, dup, sig)
}

func (c *countingInjector) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 {
	c.calls[1]++
	return c.Injector.Operand(seq, pc, dup, which, val)
}

func (c *countingInjector) AfterIRBInsert(pc uint64, b *irb.IRB) {
	c.calls[2]++
	c.Injector.AfterIRBInsert(pc, b)
}

// TestBatchQuietLanesProbedWhenDue: the batch offers a lane only the
// opportunities at which its injector may fire. With 64 FU lanes at 1e-9
// among two loud lanes and a fault-free one, every lane still equals its
// own scalar run, while each quiet lane is probed for real at most twice
// per opportunity kind — once where its first quiet window ends and once
// where the second does — of the tens of thousands its scalar run sees.
func TestBatchQuietLanesProbedWhenDue(t *testing.T) {
	p := gzipProfile(t)
	cfg := core.BaseDIEIRB()
	opts := Options{Insns: 20_000, Verify: true}
	const quiet, loud = 64, 2
	specs := []fault.Config{{}} // lane 0 is fault-free
	for s := 1; s <= quiet+loud; s++ {
		rate := 1e-9
		if s > quiet {
			rate = 1e-3
		}
		specs = append(specs, fault.Config{Site: fault.FU, Rate: rate, Seed: uint64(s)})
	}
	mk := func(spec fault.Config) *countingInjector {
		inj, err := fault.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return &countingInjector{Injector: inj}
	}
	lanes := []BatchLane{{Name: "clean"}}
	injs := []*countingInjector{nil}
	for _, spec := range specs[1:] {
		inj := mk(spec)
		lanes = append(lanes, BatchLane{Name: fmt.Sprintf("fu-%g-s%d", spec.Rate, spec.Seed), Injector: inj})
		injs = append(injs, inj)
	}
	outs, err := RunBatchContext(nil, "DIE-IRB", cfg, p, opts, lanes)
	if err != nil {
		t.Fatal(err)
	}

	var diverged int
	for i, out := range outs {
		refOpts := opts
		var ref *countingInjector
		if injs[i] != nil {
			ref = mk(specs[i])
			refOpts.Injector = ref
		}
		want, err := Run(lanes[i].Name, cfg, p, refOpts)
		if err != nil {
			t.Fatalf("lane %q: scalar reference failed: %v", lanes[i].Name, err)
		}
		got := out.Result
		if out.Diverged {
			diverged++
			injs[i].Reset()
			laneOpts := opts
			laneOpts.Injector = injs[i]
			if got, err = Run(lanes[i].Name, cfg, p, laneOpts); err != nil {
				t.Fatalf("lane %q: scalar re-run failed: %v", lanes[i].Name, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lane %q differs from its scalar run:\nbatch:  %+v\nscalar: %+v", lanes[i].Name, got, want)
		}
		if i == 0 || i > quiet {
			continue
		}
		if i == 1 {
			t.Logf("quiet lane %q: real calls %v in the batch, %v in its scalar run", lanes[i].Name, injs[i].calls, ref.calls)
		}
		if out.Diverged {
			t.Errorf("quiet lane %q diverged", lanes[i].Name)
		}
		for k, n := range injs[i].calls {
			if n > 2 {
				t.Errorf("quiet lane %q: %d real calls of opportunity kind %d, want at most 2", lanes[i].Name, n, k)
			}
			if ref.calls[k] <= 2 {
				t.Errorf("quiet lane %q: its scalar run offered only %d opportunities of kind %d; the bound proves nothing",
					lanes[i].Name, ref.calls[k], k)
			}
		}
	}
	if diverged != loud {
		t.Errorf("%d lanes diverged, want the %d loud ones", diverged, loud)
	}
}

// TestBatchLanesOwnTheirStats: convergent lanes are handed copies of the
// leader's reuse-buffer statistics, never one shared object, so a caller
// that adjusts one lane's Result cannot change another's.
func TestBatchLanesOwnTheirStats(t *testing.T) {
	p := gzipProfile(t)
	var cfg core.Config
	for _, mi := range core.Modes() {
		if mi.Mode == core.DIETRB {
			cfg = mi.Base()
		}
	}
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunBatchContext(nil, "DIE-TRB", cfg, p, Options{Insns: 4_000},
		[]BatchLane{{Name: "a"}, {Name: "b", Injector: inj}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := outs[0].Result, outs[1].Result
	if outs[0].Diverged || outs[1].Diverged {
		t.Fatalf("outcomes = %+v, want two convergent lanes", outs)
	}
	if a.IRB == nil || a.TRB == nil {
		t.Fatalf("DIE-TRB result carries IRB %p and TRB %p, want both", a.IRB, a.TRB)
	}
	if a.IRB == b.IRB {
		t.Error("two lanes share one *irb.Stats")
	}
	if a.TRB == b.TRB {
		t.Error("two lanes share one *trb.Stats")
	}
	if !reflect.DeepEqual(*a.TRB, *b.TRB) || !reflect.DeepEqual(*a.IRB, *b.IRB) {
		t.Error("lanes' reuse-buffer statistics differ")
	}
}
