package runner

// Harness-hardening tests. These live inside the package so they can swap
// simRun for stubs that panic or hang — behaviours a real simulation only
// exhibits when something is already badly wrong.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// swapSimRun substitutes the simulation entry point for the duration of
// the test, restoring the real one afterwards.
func swapSimRun(t *testing.T, fn func(context.Context, string, core.Config, workload.Profile, sim.Options) (sim.Result, error)) {
	t.Helper()
	prev := simRun
	simRun = fn
	t.Cleanup(func() { simRun = prev })
}

// handBackAll is an Execute seam that takes nothing: it settles every
// cell with ErrRunLocal.
func handBackAll(_ context.Context, jobs []Job, settle func(int, sim.Result, error)) {
	for k := range jobs {
		settle(k, sim.Result{}, ErrRunLocal)
	}
}

func stubJobs(benches ...string) []Job {
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = Job{Name: "stub", Profile: workload.Profile{Name: b}}
	}
	return jobs
}

// TestWorkerPanicIsolated: a cell that panics inside the simulation is
// recorded as that cell's *CellPanicError — with the panicking stack — and
// every other cell still completes.
func TestWorkerPanicIsolated(t *testing.T) {
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		if p.Name == "poison" {
			panic("injected test panic")
		}
		return sim.Result{Bench: p.Name}, nil
	})

	jobs := stubJobs("ok1", "poison", "ok2", "ok3")
	out, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("batch error nil despite a panicked cell")
	}
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("batch error %v does not wrap *CellPanicError", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(jobs))
	}
	for _, o := range out {
		if o.Job.Profile.Name == "poison" {
			if !errors.As(o.Err, &pe) {
				t.Fatalf("poisoned cell error = %v, want *CellPanicError", o.Err)
			}
			if pe.Value != "injected test panic" {
				t.Errorf("panic value = %v", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "goroutine") {
				t.Error("panic error carries no stack trace")
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("healthy cell %s failed: %v", o.Job.Profile.Name, o.Err)
		}
		if o.Result.Bench != o.Job.Profile.Name {
			t.Errorf("healthy cell %s missing its result", o.Job.Profile.Name)
		}
	}
}

// TestCellTimeoutRetriesOnce: a cell that hangs is stopped at the
// deadline, retried exactly once, then failed with *CellTimeoutError —
// which must survive Run's error filtering even though it began life as a
// context deadline. A cell an Execute hook hands back runs the same way.
func TestCellTimeoutRetriesOnce(t *testing.T) {
	var hangCalls atomic.Int32
	swapSimRun(t, func(ctx context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		if p.Name == "hang" {
			hangCalls.Add(1)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		}
		return sim.Result{Bench: p.Name}, nil
	})

	for _, tc := range []struct {
		name    string
		execute func(context.Context, []Job, func(int, sim.Result, error))
	}{
		{"in-process", nil},
		{"handed-back", handBackAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hangCalls.Store(0)
			jobs := stubJobs("ok1", "hang", "ok2")
			out, err := Run(context.Background(), jobs, Options{
				Parallelism: 2,
				CellTimeout: 20 * time.Millisecond,
				Execute:     tc.execute,
			})
			if err == nil {
				t.Fatal("batch error nil despite a timed-out cell")
			}
			var te *CellTimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("batch error %v does not wrap *CellTimeoutError", err)
			}
			if te.Attempts != 2 {
				t.Errorf("Attempts = %d, want 2 (one retry)", te.Attempts)
			}
			if got := hangCalls.Load(); got != 2 {
				t.Errorf("hung cell dispatched %d times, want 2", got)
			}
			for _, o := range out {
				if o.Job.Profile.Name == "hang" {
					if !errors.As(o.Err, &te) {
						t.Errorf("hung cell error = %v, want *CellTimeoutError", o.Err)
					}
				} else if o.Err != nil || o.Result.Bench != o.Job.Profile.Name {
					t.Errorf("healthy cell %s: result %+v, error %v", o.Job.Profile.Name, o.Result, o.Err)
				}
			}
		})
	}
}

// TestSweepCancelNotMistakenForCellTimeout: cancelling the whole sweep
// while a timed cell is in flight is a cancellation, not a per-cell
// failure — no retry, and the batch error is the context's.
func TestSweepCancelNotMistakenForCellTimeout(t *testing.T) {
	var calls atomic.Int32
	started := make(chan struct{}, 16)
	swapSimRun(t, func(ctx context.Context, _ string, _ core.Config, _ workload.Profile, _ sim.Options) (sim.Result, error) {
		calls.Add(1)
		started <- struct{}{}
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, stubJobs("a"), Options{Parallelism: 1, CellTimeout: time.Hour})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	var te *CellTimeoutError
	if errors.As(err, &te) {
		t.Error("sweep cancellation misreported as a cell timeout")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cancelled cell dispatched %d times, want 1 (no retry)", got)
	}
}

// TestHandedBackCellsBoundedByParallelism: Execute receives the whole run
// in one call, and the cells it hands back queue for Parallelism workers —
// a run whose dispatcher takes nothing never simulates more cells at once
// than Parallelism allows, however many it has.
func TestHandedBackCellsBoundedByParallelism(t *testing.T) {
	var running, peak atomic.Int32
	swapSimRun(t, func(_ context.Context, _ string, _ core.Config, p workload.Profile, _ sim.Options) (sim.Result, error) {
		n := running.Add(1)
		for {
			pk := peak.Load()
			if n <= pk || peak.CompareAndSwap(pk, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return sim.Result{Bench: p.Name}, nil
	})
	var calls, shipped atomic.Int32
	jobs := stubJobs("a", "b", "c", "d", "e", "f", "g", "h")
	outs, err := Run(context.Background(), jobs, Options{
		Parallelism: 2,
		Execute: func(ctx context.Context, sub []Job, settle func(int, sim.Result, error)) {
			calls.Add(1)
			shipped.Add(int32(len(sub)))
			handBackAll(ctx, sub, settle)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || shipped.Load() != int32(len(jobs)) {
		t.Errorf("Execute called %d times with %d cells, want once with %d", calls.Load(), shipped.Load(), len(jobs))
	}
	for _, o := range outs {
		if o.Err != nil || o.Result.Bench != o.Job.Profile.Name {
			t.Errorf("cell %s: result %+v, error %v", o.Job.Profile.Name, o.Result, o.Err)
		}
	}
	if got := peak.Load(); got != 2 {
		t.Errorf("peak concurrent in-process cells = %d, want 2 (Parallelism)", got)
	}
}

// TestExecutePanicFailsUnsettledCells: a panic inside the Execute seam
// fails exactly the cells it had not settled, each with a
// *CellPanicError; a cell it settled keeps its result.
func TestExecutePanicFailsUnsettledCells(t *testing.T) {
	jobs := stubJobs("a", "b", "c")
	outs, err := Run(context.Background(), jobs, Options{
		Parallelism: 1,
		Execute: func(_ context.Context, sub []Job, settle func(int, sim.Result, error)) {
			settle(0, sim.Result{Bench: sub[0].Profile.Name}, nil)
			panic("dispatcher poisoned")
		},
	})
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run error %v does not wrap *CellPanicError", err)
	}
	if outs[0].Err != nil || outs[0].Result.Bench != "a" {
		t.Errorf("settled cell: result %+v, error %v", outs[0].Result, outs[0].Err)
	}
	for _, o := range outs[1:] {
		if !errors.As(o.Err, &pe) || pe.Value != "dispatcher poisoned" || pe.Bench != o.Job.Profile.Name {
			t.Errorf("cell %s: error %v, want its own *CellPanicError", o.Job.Profile.Name, o.Err)
		}
	}
}
