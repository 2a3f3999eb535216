package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
)

// TestNewBatchSimValidation: the batch shim rejects lane sets it cannot
// honour before the core runs a single cycle.
func TestNewBatchSimValidation(t *testing.T) {
	prog := loopProgram(50)
	mk := func() *Core {
		c, err := New(BaseDIE(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	if _, err := NewBatchSim(mk(), nil); err == nil {
		t.Error("zero lanes accepted")
	}

	occupied := mk()
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	occupied.SetInjector(inj)
	if _, err := NewBatchSim(occupied, []FaultInjector{nil}); err == nil {
		t.Error("core with an installed injector accepted")
	}
}

// TestBatchSimLaneAccounting: construction resets lane injectors and
// installs the shim; the first lane to fire is evicted, and the last one
// left, with no fault-free lane in the batch, rides the leader to the end:
// the leader's run is exactly that lane's scalar run, statistics and fire
// count alike.
func TestBatchSimLaneAccounting(t *testing.T) {
	prog := loopProgram(400)
	spec := func(seed uint64) fault.Config {
		return fault.Config{Site: fault.FU, Rate: 0.01, Seed: seed}
	}
	c, err := New(BaseDIE(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var injs []*fault.Injector
	var lanes []FaultInjector
	for seed := uint64(1); seed <= 2; seed++ {
		inj, ferr := fault.New(spec(seed))
		if ferr != nil {
			t.Fatal(ferr)
		}
		inj.FUResult(1, 0, false, 0) // consumed state: NewBatchSim must Reset it
		injs = append(injs, inj)
		lanes = append(lanes, inj)
	}
	bs, err := NewBatchSim(c, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Lanes() != 2 || bs.Active() != 2 {
		t.Fatalf("Lanes/Active = %d/%d, want 2/2", bs.Lanes(), bs.Active())
	}
	for i, inj := range injs {
		if inj.Injected != 0 {
			t.Errorf("lane %d injector not reset at construction", i)
		}
	}

	if err := c.Run(); err != nil {
		t.Fatalf("Run() = %v, want the riding lane's run to complete", err)
	}
	if bs.Active() != 1 {
		t.Fatalf("Active = %d after the run, want 1 (the riding lane)", bs.Active())
	}
	rider := -1
	for i := range injs {
		seq, div := bs.Diverged(i)
		switch {
		case !div:
			rider = i
		case seq == 0:
			t.Errorf("lane %d: diverged with no strike seq", i)
		}
	}
	if rider < 0 {
		t.Fatal("no lane rode the leader")
	}
	if injs[rider].Injected == 0 {
		t.Fatal("the riding lane never fired; the test exercises nothing")
	}

	ref, err := fault.New(spec(uint64(rider + 1)))
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := New(BaseDIE(), prog)
	if err != nil {
		t.Fatal(err)
	}
	scalar.SetInjector(ref)
	if err := scalar.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Stats, scalar.Stats) {
		t.Errorf("riding lane's leader run differs from its scalar run:\nbatch:  %+v\nscalar: %+v", c.Stats, scalar.Stats)
	}
	if injs[rider].Injected != ref.Injected {
		t.Errorf("riding lane fired %d faults, its scalar run %d", injs[rider].Injected, ref.Injected)
	}
}
