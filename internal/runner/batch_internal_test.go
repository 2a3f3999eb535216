package runner

// Planner and batch-harness tests. These live inside the package so they
// can exercise planBatches directly and swap simRunBatch for stubs, the
// same way harness_test.go treats simRun.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/sim"
	"repro/internal/workload"
)

// swapSimRunBatch substitutes the batched simulation entry point for the
// duration of the test, restoring the real one afterwards.
func swapSimRunBatch(t *testing.T, fn func(context.Context, string, core.Config, workload.Profile, sim.Options, []sim.BatchLane) ([]sim.BatchOutcome, error)) {
	t.Helper()
	prev := simRunBatch
	simRunBatch = fn
	t.Cleanup(func() { simRunBatch = prev })
}

// campaignStubJobs builds n jobs identical up to their injector seed —
// the canonical batchable family — over the named profile.
func campaignStubJobs(t *testing.T, bench string, n int) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{
			Name:    "stub",
			Profile: workload.Profile{Name: bench},
			Opts:    sim.Options{Injector: inj},
		}
	}
	return jobs
}

func allEligible(int) bool { return true }

// nonBatchable delegates core.FaultInjector to a real injector but
// deliberately withholds the batch capability (no Reset/InjectedCount).
type nonBatchable struct{ inner *fault.Injector }

func (n nonBatchable) FUResult(seq, pc uint64, dup bool, sig uint64) uint64 {
	return n.inner.FUResult(seq, pc, dup, sig)
}
func (n nonBatchable) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 {
	return n.inner.Operand(seq, pc, dup, which, val)
}
func (n nonBatchable) AfterIRBInsert(pc uint64, b *irb.IRB) { n.inner.AfterIRBInsert(pc, b) }
func (nonBatchable) Fingerprint() string                    { return "nonBatchable{}" }

func TestPlanBatchesGroupingRule(t *testing.T) {
	famA := campaignStubJobs(t, "a", 3) // seeds 1..3: one group
	famB := campaignStubJobs(t, "b", 1) // singleton: no group
	// Two identical fault-free cells: duplicates, but no injector lane —
	// the cache dedups those, batching them would buy nothing.
	clean := []Job{
		{Name: "stub", Profile: workload.Profile{Name: "c"}},
		{Name: "stub", Profile: workload.Profile{Name: "c"}},
	}
	// A fault-free sibling of family A joins A's group as its clean lane.
	cleanA := Job{Name: "stub", Profile: workload.Profile{Name: "a"}}

	jobs := append(append(append(append([]Job{}, famA...), famB...), clean...), cleanA)
	groups := planBatches(jobs, allEligible)
	if len(groups) != 1 {
		t.Fatalf("got %d groups %v, want 1", len(groups), groups)
	}
	want := []int{0, 1, 2, 6}
	if len(groups[0]) != len(want) {
		t.Fatalf("group = %v, want %v", groups[0], want)
	}
	for k, i := range want {
		if groups[0][k] != i {
			t.Fatalf("group = %v, want %v", groups[0], want)
		}
	}
}

func TestPlanBatchesNonBatchableExcluded(t *testing.T) {
	jobs := campaignStubJobs(t, "a", 3)
	wrapped, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	raw := jobs[0]
	raw.Opts.Injector = nonBatchable{wrapped}
	jobs = append(jobs, raw)
	groups := planBatches(jobs, allEligible)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want the three batchable lanes only", groups)
	}
}

func TestPlanBatchesSplitsOnTraceIdentity(t *testing.T) {
	// Same campaign family, but half the lanes carry a different trace
	// object: ErrTraceMismatch semantics compare by identity, so a leader
	// holding one trace must not serve lanes holding another.
	jobs := campaignStubJobs(t, "a", 4)
	trA, trB := new(fsim.Trace), new(fsim.Trace)
	jobs[0].Opts.Trace, jobs[1].Opts.Trace = trA, trA
	jobs[2].Opts.Trace, jobs[3].Opts.Trace = trB, trB
	groups := planBatches(jobs, allEligible)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v, want two two-lane groups split on trace identity", groups)
	}
}

func TestPlanBatchesRespectsEligibility(t *testing.T) {
	jobs := campaignStubJobs(t, "a", 3)
	groups := planBatches(jobs, func(i int) bool { return i != 0 })
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v, want one group of the two eligible lanes", groups)
	}
}

// TestBatchLeaderErrorFallsBackToScalar: when the batched leader cannot
// complete, every lane must be re-dispatched as an ordinary scalar cell,
// and the sweep must end with per-cell results as if batching never
// happened.
func TestBatchLeaderErrorFallsBackToScalar(t *testing.T) {
	var batchCalls, scalarCalls atomic.Int32
	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, opts sim.Options, lanes []sim.BatchLane) ([]sim.BatchOutcome, error) {
		batchCalls.Add(1)
		if opts.Injector != nil {
			t.Error("leader options carry an injector; injectors ride in lanes")
		}
		return nil, errors.New("leader lost the trace")
	})
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		scalarCalls.Add(1)
		return sim.Result{Bench: p.Name, Config: "scalar"}, nil
	})

	jobs := campaignStubJobs(t, "a", 3)
	outs, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("fallback sweep failed: %v", err)
	}
	if got := batchCalls.Load(); got != 1 {
		t.Errorf("batch leader dispatched %d times, want 1", got)
	}
	if got := scalarCalls.Load(); got != 3 {
		t.Errorf("scalar fallback dispatched %d cells, want 3", got)
	}
	for i, o := range outs {
		if o.Err != nil || o.Result.Config != "scalar" {
			t.Errorf("lane %d: outcome %+v, want a scalar fallback result", i, o)
		}
	}
}

// TestBatchDivergedLanesRerunScalar: convergent lanes keep the batch's
// result; diverged lanes get a scalar re-run with their injector reset
// first.
func TestBatchDivergedLanesRerunScalar(t *testing.T) {
	jobs := campaignStubJobs(t, "a", 3)
	// Consume a draw so the re-run path's Reset is observable.
	jobs[1].Opts.Injector.(*fault.Injector).FUResult(1, 0, false, 0)

	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options, lanes []sim.BatchLane) ([]sim.BatchOutcome, error) {
		outs := make([]sim.BatchOutcome, len(lanes))
		for i := range lanes {
			if i == 1 {
				outs[i] = sim.BatchOutcome{Diverged: true, StruckSeq: 42}
				continue
			}
			outs[i] = sim.BatchOutcome{Result: sim.Result{Config: "batch"}}
		}
		return outs, nil
	})
	var rerunInjector *fault.Injector
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, opts sim.Options) (sim.Result, error) {
		rerunInjector = opts.Injector.(*fault.Injector)
		return sim.Result{Config: "scalar"}, nil
	})

	outs, err := Run(context.Background(), jobs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"batch", "scalar", "batch"} {
		if outs[i].Result.Config != want {
			t.Errorf("lane %d served by %q, want %q", i, outs[i].Result.Config, want)
		}
	}
	if rerunInjector != jobs[1].Opts.Injector {
		t.Error("scalar re-run did not carry the diverged lane's own injector")
	}
	if rerunInjector.Injected != 0 {
		t.Error("diverged lane's injector was not reset before its re-run")
	}
}

// TestDivergedLanesRerunOnAllWorkers: a run that forms a single batch
// group has one phase-one task, but its diverged lanes are independent
// scalar cells; phase two must spread them over every worker instead of
// inheriting phase one's pool of one.
func TestDivergedLanesRerunOnAllWorkers(t *testing.T) {
	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options, lanes []sim.BatchLane) ([]sim.BatchOutcome, error) {
		outs := make([]sim.BatchOutcome, len(lanes))
		for i := range outs {
			outs[i] = sim.BatchOutcome{Diverged: true, StruckSeq: 1}
		}
		return outs, nil
	})
	var running, peak atomic.Int32
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options) (sim.Result, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		running.Add(-1)
		return sim.Result{Config: "scalar"}, nil
	})

	jobs := campaignStubJobs(t, "a", 4)
	outs, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result.Config != "scalar" {
			t.Errorf("lane %d served by %q, want a scalar re-run", i, o.Result.Config)
		}
	}
	if got := peak.Load(); got != 2 {
		t.Errorf("peak concurrent re-runs = %d, want 2 (Parallelism)", got)
	}
}

// TestDivergedLaneRerunsWhileGroupRuns: a group's diverged lanes join
// the run's one queue as soon as their group returns, so one group's
// re-run proceeds while a second group's leader is still running instead
// of waiting for every leader to finish.
func TestDivergedLaneRerunsWhileGroupRuns(t *testing.T) {
	rerunStarted := make(chan struct{})
	var waited atomic.Bool
	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options, lanes []sim.BatchLane) ([]sim.BatchOutcome, error) {
		outs := make([]sim.BatchOutcome, len(lanes))
		for i := range outs {
			outs[i] = sim.BatchOutcome{Result: sim.Result{Config: "batch"}}
		}
		if p.Name == "fast" {
			outs[1] = sim.BatchOutcome{Diverged: true, StruckSeq: 7}
			return outs, nil
		}
		// The slow leader finishes only once the fast group's diverged
		// lane has started its scalar re-run.
		select {
		case <-rerunStarted:
			waited.Store(true)
		case <-time.After(2 * time.Second):
		}
		return outs, nil
	})
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		if p.Name == "fast" {
			close(rerunStarted)
		}
		return sim.Result{Config: "scalar"}, nil
	})

	jobs := append(campaignStubJobs(t, "slow", 3), campaignStubJobs(t, "fast", 3)...)
	outs, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !waited.Load() {
		t.Error("the diverged lane did not re-run until every batch leader had finished")
	}
	for i, o := range outs {
		want := "batch"
		if i == 4 {
			want = "scalar"
		}
		if o.Result.Config != want {
			t.Errorf("cell %d served by %q, want %q", i, o.Result.Config, want)
		}
	}
}

// TestBatchLeaderPanicFallsBack: a panic under the batched leader is
// contained exactly like a scalar cell panic — and because batch groups
// retry as scalar cells, the sweep can still complete cleanly.
func TestBatchLeaderPanicFallsBack(t *testing.T) {
	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options, _ []sim.BatchLane) ([]sim.BatchOutcome, error) {
		panic("leader poisoned")
	})
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		return sim.Result{Bench: p.Name}, nil
	})
	jobs := campaignStubJobs(t, "a", 2)
	outs, err := Run(context.Background(), jobs, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("sweep failed despite scalar fallback: %v", err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Result.Bench != "a" {
			t.Errorf("lane %d: outcome %+v, want a scalar fallback result", i, o)
		}
	}
}

// TestNoBatchDisablesPlanner: with Options.NoBatch the batched entry
// point must never be consulted.
func TestNoBatchDisablesPlanner(t *testing.T) {
	var batchCalls atomic.Int32
	swapSimRunBatch(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options, _ []sim.BatchLane) ([]sim.BatchOutcome, error) {
		batchCalls.Add(1)
		return nil, errors.New("unreachable")
	})
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options) (sim.Result, error) {
		return sim.Result{}, nil
	})
	jobs := campaignStubJobs(t, "a", 3)
	if _, err := Run(context.Background(), jobs, Options{Parallelism: 1, NoBatch: true}); err != nil {
		t.Fatal(err)
	}
	if got := batchCalls.Load(); got != 0 {
		t.Errorf("NoBatch sweep consulted the batch runner %d times", got)
	}
}
