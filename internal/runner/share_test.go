package runner

// Trace-sharing tests. They swap simRun (harness_test.go) for a stub that
// records the trace each cell was handed, so the sharing rule is checked
// without running the timing core. Captures are real.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recordTraces swaps simRun for a stub that notes the trace each cell
// (keyed by its configuration name) runs with.
func recordTraces(t *testing.T) func() map[string]*fsim.Trace {
	t.Helper()
	var (
		mu   sync.Mutex
		seen = map[string]*fsim.Trace{}
	)
	swapSimRun(t, func(_ context.Context, name string, _ core.Config, p workload.Profile, opts sim.Options) (sim.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		seen[name] = opts.Trace
		return sim.Result{Bench: p.Name, Config: name}, nil
	})
	return func() map[string]*fsim.Trace {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// shareJobs builds one cell per name on the named benchmark, with
// distinct names so a recorder can tell the cells apart.
func shareJobs(t *testing.T, bench string, names ...string) []Job {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	jobs := make([]Job, len(names))
	for i, n := range names {
		jobs[i] = Job{Name: n, Config: core.BaseDIE(), Profile: p, Opts: sim.Options{Insns: 2_000}}
	}
	return jobs
}

// mapCache is a minimal Cache for the sharing tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

func (c *mapCache) Get(k string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	return r, ok
}

func (c *mapCache) Put(k string, r sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = r
}

// TestRunSharesTraceOfRepeatedWorkload: every cell of a workload that two
// or more cells run sees one trace object; a lone cell sees none; neither
// the caller's jobs nor the outcomes carry the runner's trace; and cells
// shipped through an Execute hook carry none either.
func TestRunSharesTraceOfRepeatedWorkload(t *testing.T) {
	seen := recordTraces(t)
	jobs := append(shareJobs(t, "bzip2", "b1", "b2", "b3"), shareJobs(t, "gzip", "lone")...)
	outs, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := seen()
	if got["b1"] == nil {
		t.Fatal("repeated workload ran without a shared trace")
	}
	if got["b2"] != got["b1"] || got["b3"] != got["b1"] {
		t.Error("cells of one workload got different traces")
	}
	if got["lone"] != nil {
		t.Error("a lone cell was given a trace")
	}
	for i := range jobs {
		if jobs[i].Opts.Trace != nil {
			t.Errorf("caller's job %d was written", i)
		}
		if outs[i].Job.Opts.Trace != nil {
			t.Errorf("outcome %d carries the runner's trace", i)
		}
	}

	var (
		mu      sync.Mutex
		shipped int
	)
	_, err = Run(context.Background(), jobs, Options{
		Parallelism: 2,
		Execute: func(_ context.Context, sub []Job, settle func(int, sim.Result, error)) {
			for k, j := range sub {
				mu.Lock()
				if j.Opts.Trace != nil {
					shipped++
				}
				mu.Unlock()
				settle(k, sim.Result{Bench: j.Profile.Name, Config: j.Name}, nil)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 0 {
		t.Errorf("%d shipped cells carried a trace", shipped)
	}
}

// TestRunSharesAfterCacheLookup: cache hits do not count towards sharing
// — a workload with one cell left to simulate runs it untraced — and a
// cell that already carries a trace keeps it without lending it out.
func TestRunSharesAfterCacheLookup(t *testing.T) {
	seen := recordTraces(t)
	// Three machines on one workload; the first two are cached.
	jobs := shareJobs(t, "bzip2", "hit1", "hit2", "miss")
	jobs[0].Config = core.BaseSIE()
	jobs[1].Config = core.BaseDIEIRB()
	cache := &mapCache{m: map[string]sim.Result{}}
	for _, j := range jobs[:2] {
		k, err := j.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		cache.m[k] = sim.Result{Bench: j.Profile.Name}
	}
	// Two gzip cells, one of them pre-seeded with its own trace.
	gzip := shareJobs(t, "gzip", "seeded", "plain")
	own, err := sim.CaptureTrace(gzip[0].Profile, gzip[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	gzip[0].Opts.Trace = own
	jobs = append(jobs, gzip...)

	outs, err := Run(context.Background(), jobs, Options{Parallelism: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].CacheHit || !outs[1].CacheHit || outs[2].CacheHit {
		t.Fatalf("cache hits = %v %v %v, want true true false", outs[0].CacheHit, outs[1].CacheHit, outs[2].CacheHit)
	}
	got := seen()
	if _, ran := got["hit1"]; ran {
		t.Error("a cache hit was simulated")
	}
	if got["miss"] != nil {
		t.Error("the one cell left of a cached workload was given a trace")
	}
	if got["seeded"] != own {
		t.Error("a pre-seeded trace was replaced")
	}
	if got["plain"] != nil {
		t.Error("a cell whose only peer carries its own trace was given one")
	}
}

// captureGrid is three workloads × four configurations plus two invalid
// profiles of two cells each (ArrayWords 17 fails workload.Profile.Validate)
// placed among them. Its first cell carries its own pre-captured trace.
// Cell names are unique, so a recorder can tell the cells apart.
func captureGrid(t *testing.T) []Job {
	t.Helper()
	cfgs := []core.Config{core.BaseSIE(), core.BaseDIE(), core.BaseDIEIRB(), core.BaseDIE().WithDoubledALUs()}
	profile := func(name string) workload.Profile {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		return p
	}
	invalid := func(name string) workload.Profile {
		p := profile("gzip")
		p.Name, p.ArrayWords = name, 17
		return p
	}
	var jobs []Job
	for _, p := range []workload.Profile{profile("gzip"), invalid("bad-1"), profile("bzip2"), invalid("bad-2"), profile("mesa")} {
		n := len(cfgs)
		if p.ArrayWords == 17 {
			n = 2
		}
		for c := 0; c < n; c++ {
			jobs = append(jobs, Job{Name: fmt.Sprintf("%s/%d", p.Name, c), Config: cfgs[c], Profile: p, Opts: sim.Options{Insns: 2_000}})
		}
	}
	own, err := sim.CaptureTrace(jobs[0].Profile, jobs[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].Opts.Trace = own
	return jobs
}

// checkGridTraces holds the traces the cells of captureGrid ran with
// (traceOf) to one trace per valid workload, shared by all of its cells
// but the pre-seeded one, which keeps own; invalid cells get none.
func checkGridTraces(t *testing.T, jobs []Job, traceOf func(int) *fsim.Trace, own *fsim.Trace) {
	t.Helper()
	byBench := map[string]*fsim.Trace{}
	distinct := map[*fsim.Trace]bool{own: true}
	for i, j := range jobs {
		tr := traceOf(i)
		switch {
		case i == 0:
			if tr != own {
				t.Errorf("the pre-seeded cell %s runs with another trace", j.Name)
			}
		case j.Profile.ArrayWords == 17:
			if tr != nil {
				t.Errorf("invalid cell %s was given a trace", j.Name)
			}
		case tr == nil:
			t.Errorf("cell %s was given no trace", j.Name)
		default:
			if prev, ok := byBench[j.Profile.Name]; ok && prev != tr {
				t.Errorf("cells of %s got different traces", j.Profile.Name)
			}
			byBench[j.Profile.Name] = tr
			distinct[tr] = true
		}
	}
	if len(byBench) != 3 || len(distinct) != 4 {
		t.Errorf("%d workloads traced with %d distinct traces besides the pre-seeded one, want 3 and 3",
			len(byBench), len(distinct)-1)
	}
}

// TestCaptureTracesOnePerWorkload: AttachTraces and Run's sharing, each
// capturing the distinct workloads concurrently, give all cells of a
// valid workload one trace, leave a pre-seeded trace alone and invalid
// profiles untraced; on every repeat AttachTraces attaches every trace
// it captured and returns the first invalid profile's error in job order.
func TestCaptureTracesOnePerWorkload(t *testing.T) {
	grid := captureGrid(t)
	own := grid[0].Opts.Trace
	for rep := 0; rep < 20; rep++ {
		jobs := slices.Clone(grid)
		err := AttachTraces(jobs)
		if err == nil || !strings.Contains(err.Error(), "capturing trace for bad-1:") {
			t.Fatalf("repeat %d: AttachTraces() = %v, want the capture error of bad-1", rep, err)
		}
		checkGridTraces(t, jobs, func(i int) *fsim.Trace { return jobs[i].Opts.Trace }, own)
	}

	seen := recordTraces(t)
	if _, err := Run(context.Background(), grid, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	got := seen()
	checkGridTraces(t, grid, func(i int) *fsim.Trace { return got[grid[i].Name] }, own)
	for _, j := range grid[1:] {
		if j.Opts.Trace != nil {
			t.Errorf("Run wrote a trace into the caller's cell %s", j.Name)
		}
	}
}
