package runner_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testJobs builds a small (benchmark × headline-config) grid.
func testJobs(t *testing.T, benches []string, insns uint64) []runner.Job {
	t.Helper()
	var jobs []runner.Job
	for _, name := range benches {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		for _, nc := range sim.HeadlineConfigs() {
			jobs = append(jobs, runner.Job{
				Name: nc.Name, Config: nc.Cfg, Profile: p,
				Opts: sim.Options{Insns: insns},
			})
		}
	}
	return jobs
}

// TestSerialParallelEquivalence is the parallel-correctness anchor: the
// same grid run by one worker and by eight must produce identical Result
// values cell by cell, in the same (input) order.
func TestSerialParallelEquivalence(t *testing.T) {
	jobs := testJobs(t, []string{"bzip2", "ammp"}, 10_000)
	serial, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("outcome counts %d/%d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if parallel[i].Result.Bench != jobs[i].Profile.Name ||
			parallel[i].Result.Config != jobs[i].Name {
			t.Errorf("cell %d out of order: got %s/%s, want %s/%s", i,
				parallel[i].Result.Bench, parallel[i].Result.Config,
				jobs[i].Profile.Name, jobs[i].Name)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("cell %d (%s on %s): serial and parallel results differ",
				i, jobs[i].Profile.Name, jobs[i].Name)
		}
	}
}

// TestErrorIsolation poisons one cell's configuration: that cell must
// fail, every other cell must still run to completion, and the batch
// error must name the failed cell.
func TestErrorIsolation(t *testing.T) {
	jobs := testJobs(t, []string{"gzip"}, 8_000)
	poisoned := core.BaseSIE()
	poisoned.RUUSize = 0 // fails core config validation
	bad := runner.Job{Name: "poisoned", Config: poisoned, Profile: jobs[0].Profile,
		Opts: sim.Options{Insns: 8_000}}
	jobs = append(jobs[:2:2], append([]runner.Job{bad}, jobs[2:]...)...)

	outs, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 4})
	if err == nil {
		t.Fatal("poisoned cell did not surface in the batch error")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Errorf("batch error does not name the failed cell: %v", err)
	}
	for i, o := range outs {
		if jobs[i].Name == "poisoned" {
			if o.Err == nil {
				t.Error("poisoned cell reported no error")
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("healthy cell %s on %s failed: %v", jobs[i].Profile.Name, jobs[i].Name, o.Err)
		}
		if o.Result.Core.Committed != 8_000 {
			t.Errorf("healthy cell %s on %s committed %d, want 8000",
				jobs[i].Profile.Name, jobs[i].Name, o.Result.Core.Committed)
		}
	}
}

// TestCancellationPartialResults cancels the sweep from the progress
// callback: completed cells keep their results, the rest carry the
// context's error, and Run reports the cancellation.
func TestCancellationPartialResults(t *testing.T) {
	p, _ := workload.ByName("gzip")
	var jobs []runner.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, runner.Job{
			Name: "DIE", Config: core.BaseDIE(), Profile: p,
			Opts: sim.Options{Insns: 15_000},
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs, err := runner.Run(ctx, jobs, runner.Options{
		Parallelism: 2,
		Progress: func(pr runner.Progress) {
			if pr.Done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	var done, cancelled int
	for _, o := range outs {
		switch {
		case o.Err == nil:
			done++
			if o.Result.Core.Committed != 15_000 {
				t.Errorf("completed cell committed %d", o.Result.Core.Committed)
			}
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("unexpected cell error: %v", o.Err)
		}
	}
	if done < 2 {
		t.Errorf("only %d cells completed before cancellation, want >= 2", done)
	}
	if cancelled == 0 {
		t.Error("no cell recorded the cancellation")
	}
}

// TestProgressReporting checks the per-cell progress stream: a strictly
// increasing Done count up to Total, labelled cells, and a zero ETA on
// the final report.
func TestProgressReporting(t *testing.T) {
	jobs := testJobs(t, []string{"gzip"}, 5_000)
	var seen []runner.Progress
	_, err := runner.Run(context.Background(), jobs, runner.Options{
		Parallelism: 1,
		Progress:    func(p runner.Progress) { seen = append(seen, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d progress reports, want %d", len(seen), len(jobs))
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Errorf("report %d: done %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(jobs))
		}
		if p.Bench == "" || p.Config == "" {
			t.Errorf("report %d: unlabelled cell %q/%q", i, p.Bench, p.Config)
		}
	}
	if last := seen[len(seen)-1]; last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
}

// TestCostHeuristic pins the ranking the LPT dispatch relies on: heavier
// modes, wider machines and verified runs must cost more, and a zero
// instruction budget must price as the default budget.
func TestCostHeuristic(t *testing.T) {
	p, _ := workload.ByName("gzip")
	mk := func(cfg core.Config, opts sim.Options) runner.Job {
		return runner.Job{Name: "x", Config: cfg, Profile: p, Opts: opts}
	}
	o := sim.Options{Insns: 100_000}
	sie := mk(core.BaseSIE(), o)
	die := mk(core.BaseDIE(), o)
	irb := mk(core.BaseDIEIRB(), o)
	wide := mk(core.BaseDIEIRB().WithDoubledWidths().WithDoubledRUU(), o)
	if !(sie.Cost() < die.Cost() && die.Cost() < irb.Cost() && irb.Cost() < wide.Cost()) {
		t.Errorf("cost ordering broken: SIE %.0f, DIE %.0f, DIE-IRB %.0f, wide %.0f",
			sie.Cost(), die.Cost(), irb.Cost(), wide.Cost())
	}
	verified := mk(core.BaseSIE(), sim.Options{Insns: 100_000, Verify: true})
	if verified.Cost() <= sie.Cost() {
		t.Error("verification did not raise the cost estimate")
	}
	defaulted := mk(core.BaseSIE(), sim.Options{})
	explicit := mk(core.BaseSIE(), sim.Options{Insns: sim.DefaultInsns})
	if defaulted.Cost() != explicit.Cost() {
		t.Errorf("zero budget cost %.0f != default budget cost %.0f",
			defaulted.Cost(), explicit.Cost())
	}
}

// TestEmptyBatch keeps the degenerate case boring.
func TestEmptyBatch(t *testing.T) {
	outs, err := runner.Run(context.Background(), nil, runner.Options{})
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: %v, %d outcomes", err, len(outs))
	}
}

// TestPreCancelledContext runs nothing and reports every cell skipped.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testJobs(t, []string{"gzip"}, 5_000)
	outs, err := runner.Run(ctx, jobs, runner.Options{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i, o.Err)
		}
	}
}

// TestAttachTracesSharesPerWorkload: cells running the same workload get
// the same trace object; cells with different workloads (or measurement
// windows) get distinct ones; pre-seeded traces survive.
func TestAttachTracesSharesPerWorkload(t *testing.T) {
	jobs := testJobs(t, []string{"bzip2", "ammp"}, 8_000)
	// Give one cell a distinct fast-forward: same profile, different
	// executed window, so it must not share bzip2's common trace.
	jobs[1].Opts.FastForward = 2_000
	if err := runner.AttachTraces(jobs); err != nil {
		t.Fatal(err)
	}
	byBench := map[string]*fsim.Trace{}
	for i, j := range jobs {
		if j.Opts.Trace == nil {
			t.Fatalf("job %d (%s/%s) got no trace", i, j.Profile.Name, j.Name)
		}
		if i == 1 {
			continue
		}
		if prev, ok := byBench[j.Profile.Name]; ok && prev != j.Opts.Trace {
			t.Errorf("%s cells got different traces", j.Profile.Name)
		}
		byBench[j.Profile.Name] = j.Opts.Trace
	}
	if byBench["bzip2"] == byBench["ammp"] {
		t.Error("different benchmarks share a trace")
	}
	if jobs[1].Opts.Trace == byBench["bzip2"] {
		t.Error("fast-forwarded cell shares the plain cell's trace")
	}
	// Idempotence: a second attach must keep every existing trace.
	before := make([]*fsim.Trace, len(jobs))
	for i := range jobs {
		before[i] = jobs[i].Opts.Trace
	}
	if err := runner.AttachTraces(jobs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Opts.Trace != before[i] {
			t.Errorf("job %d trace replaced on re-attach", i)
		}
	}
}

// TestAttachTracesMatchesDirectRun: a traced grid must produce results
// identical to direct interpretation. The reference comes from
// sim.RunContext per job, since Run itself shares traces among the cells
// of a repeated workload; both the runner's own sharing and AttachTraces'
// pre-seeded traces are checked against it.
func TestAttachTracesMatchesDirectRun(t *testing.T) {
	jobs := testJobs(t, []string{"bzip2"}, 8_000)
	for i := range jobs {
		jobs[i].Opts.Verify = true
	}
	direct := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		res, err := sim.RunContext(context.Background(), j.Name, j.Config, j.Profile, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = res
	}
	shared, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.AttachTraces(jobs); err != nil {
		t.Fatal(err)
	}
	attached, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(direct[i], shared[i].Result) {
			t.Errorf("cell %d (%s/%s) differs between the runner's shared trace and a direct run",
				i, jobs[i].Profile.Name, jobs[i].Name)
		}
		if !reflect.DeepEqual(direct[i], attached[i].Result) {
			t.Errorf("cell %d (%s/%s) differs between an attached trace and a direct run",
				i, jobs[i].Profile.Name, jobs[i].Name)
		}
	}
}
