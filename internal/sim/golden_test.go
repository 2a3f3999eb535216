package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.txt from the current simulator")

const goldenPath = "testdata/golden_stats.txt"

// goldenInsns keeps every cell a few thousand instructions long: enough for
// mispredict recovery, IRB reuse and several injected faults per campaign,
// short enough for the whole grid to run in a few seconds.
const goldenInsns = 4_000

// goldenProfiles mix integer and FP, cache-friendly and memory-bound work.
var goldenProfiles = []string{"gzip", "gcc", "mcf", "mesa"}

// longInsns and longProfiles pin the headline machines through long memory
// stalls: on mcf and ammp most cycles change no pipeline state, so these
// cells hold the cycle loop's handling of idle spans to the bit, at a
// budget where the caches have warmed and the misses recur.
const longInsns = 30_000

var longProfiles = []string{"mcf", "ammp"}

// goldenCell is one configuration of the timing golden; site is empty for
// fault-free cells and names the injection site of a campaign cell.
type goldenCell struct {
	name string
	cfg  core.Config
	site fault.Site
}

// goldenCells lists every registered mode, the scheduler, cluster and
// reuse-source matrices, the two IRB ablations, and a 3e-4 campaign at
// each injection site every detecting mode exposes.
func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for _, mi := range core.Modes() {
		cells = append(cells, goldenCell{name: "mode:" + string(mi.Mode), cfg: mi.Base()})
	}
	for _, set := range []struct {
		prefix string
		ncs    []NamedConfig
	}{
		{"sched:", SchedulerConfigs()},
		{"cluster:", ClusterConfigs()},
		{"reuse:", ReuseSourceConfigs()},
	} {
		for _, nc := range set.ncs {
			cells = append(cells, goldenCell{name: set.prefix + nc.Name, cfg: nc.Cfg})
		}
	}
	mi, ok := core.ModeByName("DIE-IRB")
	if !ok {
		t.Fatal("DIE-IRB not registered")
	}
	asFU, both := mi.Base(), mi.Base()
	asFU.IRBAsFU = true
	both.IRBBothStreams = true
	cells = append(cells,
		goldenCell{name: "irb:as-FU", cfg: asFU},
		goldenCell{name: "irb:both-streams", cfg: both})
	for _, mi := range core.Modes() {
		if !mi.Caps.Detects {
			continue
		}
		sites := []fault.Site{fault.FU, fault.Forward}
		if mi.Caps.UsesIRB {
			sites = append(sites, fault.IRBResult, fault.IRBOperand)
		}
		for _, s := range sites {
			cells = append(cells, goldenCell{name: "fault:" + string(mi.Mode) + "/" + string(s), cfg: mi.Base(), site: s})
		}
	}
	return cells
}

// longCells lists the headline machines, run at longInsns.
func longCells() []goldenCell {
	var cells []goldenCell
	for _, nc := range HeadlineConfigs() {
		cells = append(cells, goldenCell{name: "long:" + nc.Name, cfg: nc.Cfg})
	}
	return cells
}

// runGoldenCell runs one verified cell of insns instructions, replaying tr
// when it is non-nil and interpreting the program directly otherwise.
// Campaign cells get a fresh injector per run so both paths see the same
// fault stream.
func runGoldenCell(c goldenCell, p workload.Profile, insns uint64, tr *fsim.Trace) (Result, error) {
	opts := Options{Insns: insns, Verify: true, Trace: tr}
	if c.site != "" {
		inj, err := fault.New(fault.Config{Site: c.site, Rate: 3e-4, Seed: p.Seed})
		if err != nil {
			return Result{}, err
		}
		opts.Injector = inj
	}
	return Run(c.name, c.cfg, p, opts)
}

// goldenLine renders one cell: profile, config, cycles, committed, IPC and
// the sha256 of the JSON-encoded Result, which covers every statistic.
func goldenLine(p string, c goldenCell, r Result) (string, error) {
	js, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s %d %d %s %x", p, c.name, r.Core.Cycles, r.Core.Committed,
		strconv.FormatFloat(r.IPC, 'g', -1, 64), sha256.Sum256(js)), nil
}

// TestTimingGolden pins the timing model's output bit for bit: every cell
// of the grid above on goldenProfiles, and every long cell on
// longProfiles, run through trace replay and through direct
// interpretation, must produce identical Results, and the rendered lines
// must equal testdata/golden_stats.txt byte for byte. A performance change
// to the core or the functional simulator must leave this file untouched;
// a deliberate model change regenerates it with
//
//	go test ./internal/sim -run TestTimingGolden -update
func TestTimingGolden(t *testing.T) {
	cells := goldenCells(t)
	type job struct {
		p     workload.Profile
		insns uint64
		tr    *fsim.Trace
		cell  goldenCell
	}
	var jobs []job
	for _, set := range []struct {
		profiles []string
		insns    uint64
		cells    []goldenCell
	}{
		{goldenProfiles, goldenInsns, cells},
		{longProfiles, longInsns, longCells()},
	} {
		for _, name := range set.profiles {
			p, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("profile %s missing", name)
			}
			tr, err := CaptureTrace(p, Options{Insns: set.insns})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range set.cells {
				jobs = append(jobs, job{p, set.insns, tr, c})
			}
		}
	}

	lines := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				replay, err := runGoldenCell(j.cell, j.p, j.insns, j.tr)
				if err != nil {
					errs[i] = fmt.Errorf("%s %s replay: %w", j.p.Name, j.cell.name, err)
					continue
				}
				direct, err := runGoldenCell(j.cell, j.p, j.insns, nil)
				if err != nil {
					errs[i] = fmt.Errorf("%s %s direct: %w", j.p.Name, j.cell.name, err)
					continue
				}
				if !reflect.DeepEqual(replay, direct) {
					errs[i] = fmt.Errorf("%s %s: trace replay differs from direct interpretation:\nreplay %+v\ndirect %+v",
						j.p.Name, j.cell.name, replay, direct)
					continue
				}
				lines[i], errs[i] = goldenLine(j.p.Name, j.cell, replay)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		return
	}

	var got bytes.Buffer
	got.WriteString("# profile config cycles committed ipc sha256(json(sim.Result))\n")
	for _, l := range lines {
		got.WriteString(l + "\n")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got %s\nwant %s", goldenPath, i+1, g, w)
		}
	}
}
