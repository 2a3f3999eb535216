package runner_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/irb"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// mapCache is a minimal thread-safe runner.Cache for tests.
type mapCache struct {
	mu         sync.Mutex
	m          map[string]sim.Result
	gets, hits int
	puts       int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]sim.Result)} }

func (c *mapCache) Get(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *mapCache) Put(key string, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = res
}

// TestFingerprintStability: equal jobs agree, and every input that should
// change the result changes the key.
func TestFingerprintStability(t *testing.T) {
	base := testJobs(t, []string{"bzip2"}, 5_000)[0]
	k1, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("fingerprint not stable: %s vs %s", k1, k2)
	}

	renamed := base
	renamed.Name = "other-display-name"
	if k, _ := renamed.Fingerprint(); k != k1 {
		t.Errorf("display name changed the fingerprint; it is not a simulation input")
	}

	mutate := map[string]func(j *runner.Job){
		"insns":       func(j *runner.Job) { j.Opts.Insns++ },
		"seed":        func(j *runner.Job) { j.Opts.Seed = 99 },
		"fastforward": func(j *runner.Job) { j.Opts.FastForward = 128 },
		"verify":      func(j *runner.Job) { j.Opts.Verify = true },
		"config":      func(j *runner.Job) { j.Config.RUUSize *= 2 },
		"profile":     func(j *runner.Job) { j.Profile.Iters++ },
		"injector": func(j *runner.Job) {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			j.Opts.Injector = inj
		},
	}
	for name, mut := range mutate {
		j := base
		mut(&j)
		k, err := j.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}

	// Same fault spec, fresh injector value: keys must agree.
	ja, jb := base, base
	inj1, _ := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: 7})
	inj2, _ := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: 7})
	ja.Opts.Injector, jb.Opts.Injector = inj1, inj2
	ka, _ := ja.Fingerprint()
	kb, _ := jb.Fingerprint()
	if ka != kb {
		t.Errorf("equal fault specs produced different fingerprints")
	}
}

// TestFingerprintModeKnobs: mode-specific knobs are simulation inputs, so
// cache keys must differ when a knob differs and stay byte-stable when it
// is unset — zero-valued knobs serialize to nothing, so every key minted
// before the knobs existed is still valid.
func TestFingerprintModeKnobs(t *testing.T) {
	mk := func(mode string, tweak func(*core.Config)) runner.Job {
		mi, ok := core.ModeByName(mode)
		if !ok {
			t.Fatalf("mode %q not registered", mode)
		}
		j := testJobs(t, []string{"bzip2"}, 5_000)[0]
		j.Config = mi.Base()
		if tweak != nil {
			tweak(&j.Config)
		}
		return j
	}
	fp := func(j runner.Job) string {
		t.Helper()
		k, err := j.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	rep := fp(mk("REPLAY", nil))
	if again := fp(mk("REPLAY", nil)); again != rep {
		t.Error("identical REPLAY jobs disagree on their key")
	}
	if k := fp(mk("REPLAY", func(c *core.Config) { c.ReplayEpoch = 2048 })); k == rep {
		t.Error("checkpoint interval is not part of the cache key")
	}

	tmr := fp(mk("TMR", nil))
	if k := fp(mk("TMR", func(c *core.Config) { c.VoteWidth = 5 })); k == tmr {
		t.Error("vote width is not part of the cache key")
	}

	trb := fp(mk("DIE-TRB", nil))
	if again := fp(mk("DIE-TRB", nil)); again != trb {
		t.Error("identical DIE-TRB jobs disagree on their key")
	}
	if k := fp(mk("DIE-TRB", func(c *core.Config) { c.TRBEntries = 512 })); k == trb {
		t.Error("TRB entry count is not part of the cache key")
	}
	if k := fp(mk("DIE-TRB", func(c *core.Config) { c.TRBMaxBlockLen = 8 })); k == trb {
		t.Error("TRB window length cap is not part of the cache key")
	}
	if k := fp(mk("DIE-IRB", nil)); k == trb {
		t.Error("DIE-TRB and DIE-IRB cells share a cache key")
	}

	// Byte-stability: unset knobs must vanish from the canonical payload,
	// keeping pre-knob configs' keys bit-identical.
	b, err := json.Marshal(core.BaseDIE())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ReplayEpoch", "VoteWidth", "TRBEntries", "TRBMaxBlockLen"} {
		if strings.Contains(string(b), field) {
			t.Errorf("zero-valued %s leaks into the canonical config payload", field)
		}
	}
}

// TestFingerprintUncacheable: an injector without a spec makes the job
// uncacheable, not a panic or a silent wrong key.
func TestFingerprintUncacheable(t *testing.T) {
	j := testJobs(t, []string{"bzip2"}, 5_000)[0]
	j.Opts.Injector = opaqueInjector{}
	if _, err := j.Fingerprint(); err == nil {
		t.Fatal("want ErrUncacheable for an opaque injector, got nil")
	}
}

type opaqueInjector struct{}

func (opaqueInjector) FUResult(seq, pc uint64, dup bool, sig uint64) uint64           { return sig }
func (opaqueInjector) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 { return val }
func (opaqueInjector) AfterIRBInsert(pc uint64, b *irb.IRB)                           {}

// TestRunCacheRoundTrip: a second identical grid is served entirely from
// cache, bit-identical to the first, with CacheHit set on every cell.
func TestRunCacheRoundTrip(t *testing.T) {
	jobs := testJobs(t, []string{"bzip2"}, 5_000)
	trb, ok := core.ModeByName("DIE-TRB") // its cells carry TRB stats as well as IRB stats
	if !ok {
		t.Fatal("DIE-TRB mode not registered")
	}
	jobs = append(jobs, runner.Job{Name: "DIE-TRB", Config: trb.Base(), Profile: jobs[0].Profile, Opts: jobs[0].Opts})
	cache := newMapCache()
	first, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].CacheHit {
			t.Fatalf("cell %d hit an empty cache", i)
		}
	}
	if cache.puts != len(jobs) {
		t.Fatalf("cache puts %d, want %d", cache.puts, len(jobs))
	}

	var progressDone int
	second, err := runner.Run(context.Background(), jobs, runner.Options{
		Parallelism: 2,
		Cache:       cache,
		Progress:    func(p runner.Progress) { progressDone = p.Done },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].CacheHit {
			t.Errorf("cell %d (%s on %s) missed a warm cache", i,
				jobs[i].Profile.Name, jobs[i].Name)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("cell %d: cached result differs from simulated result", i)
		}
	}
	if cache.puts != len(jobs) {
		t.Errorf("warm run stored %d extra results", cache.puts-len(jobs))
	}
	if progressDone != len(jobs) {
		t.Errorf("progress reached %d/%d on an all-cached run", progressDone, len(jobs))
	}

	// Neither a miss nor a hit may alias its cache entry's IRB and TRB
	// stats, and hits must not alias each other's.
	aliased := func(a, b sim.Result) bool {
		return a.IRB != nil && a.IRB == b.IRB || a.TRB != nil && a.TRB == b.TRB
	}
	for i := range second {
		k, err := jobs[i].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if second[i].Result.TRB == nil && jobs[i].Name == "DIE-TRB" {
			t.Fatal("the DIE-TRB hit carries no TRB stats")
		}
		if aliased(first[i].Result, cache.m[k]) || aliased(second[i].Result, cache.m[k]) {
			t.Fatalf("cell %d (%s) shares a stats pointer with its cache entry", i, jobs[i].Name)
		}
		for j := i + 1; j < len(second); j++ {
			if aliased(second[i].Result, second[j].Result) {
				t.Fatalf("cells %d and %d share a stats pointer", i, j)
			}
		}
	}
}

// TestRunCacheRewritesDisplayName: a hit keyed by an identical simulation
// under a different display name reports the requesting job's name.
func TestRunCacheRewritesDisplayName(t *testing.T) {
	jobs := testJobs(t, []string{"bzip2"}, 5_000)[:1]
	cache := newMapCache()
	if _, err := runner.Run(context.Background(), jobs, runner.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	renamed := jobs[0]
	renamed.Name = "alias"
	outs, err := runner.Run(context.Background(), []runner.Job{renamed}, runner.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].CacheHit {
		t.Fatal("renamed job missed the cache")
	}
	if outs[0].Result.Config != "alias" {
		t.Fatalf("cached result reports config %q, want %q", outs[0].Result.Config, "alias")
	}
}

// TestRunCacheSkipsUncacheable: uncacheable jobs run and are not stored.
func TestRunCacheSkipsUncacheable(t *testing.T) {
	p, _ := workload.ByName("bzip2")
	job := testJobs(t, []string{"bzip2"}, 5_000)[0]
	job.Opts.Injector = opaqueInjector{}
	job.Profile = p
	cache := newMapCache()
	outs, err := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[0].CacheHit {
		t.Fatalf("uncacheable job: err=%v hit=%t", outs[0].Err, outs[0].CacheHit)
	}
	if cache.puts != 0 {
		t.Fatalf("uncacheable job was stored (%d puts)", cache.puts)
	}
}
