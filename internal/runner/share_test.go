package runner

// Trace-sharing tests. They swap simRun (harness_test.go) for a stub that
// records the trace each cell was handed, so the sharing rule is checked
// without running the timing core. Captures are real.

import (
	"context"
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
		Execute: func(_ context.Context, j Job) (sim.Result, error) {
			mu.Lock()
			defer mu.Unlock()
			if j.Opts.Trace != nil {
				shipped++
			}
			return sim.Result{Bench: j.Profile.Name, Config: j.Name}, nil
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
