//go:build !perfbench_legacy

package main

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

// mustPass runs one pass of gw and fails the test on any failed check.
func mustPass(t *testing.T, gw gridWorkload, seed uint64) *pass {
	t.Helper()
	o := &outcome{}
	p, err := runPass(gw, seed, 2, o, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d failed checks: %v", o.failed, o.failures)
	}
	return p
}

func TestHeadlineReproducesExperiment(t *testing.T) {
	const insns = 3000
	p := mustPass(t, headlineWorkload(insns), 0)
	got := summarizeHeadline(p.outs)
	_, want, _, err := experiments.Headline(experiments.Options{Insns: insns})
	if err != nil {
		t.Fatal(err)
	}
	if got != (headlineSummary{want.AvgLossDIE, want.AvgLossIRB, want.AvgLoss2xALU, want.OverallGain, want.ALUBandwidth}) {
		t.Fatalf("headline summary %+v, experiments.Headline %+v", got, want)
	}
}

func TestFrontierReproducesExperiment(t *testing.T) {
	const insns = 2000
	profiles := frontierProfiles[:2]
	p := mustPass(t, frontierWorkload(profiles, insns), 0)
	got, err := frontierRows(len(profiles), p.jobs, p.outs)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := experiments.Frontier(experiments.Options{Insns: insns, Benchmarks: profiles})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier rows differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecomposedCellsMatchRunContext runs every fault-free cell of the
// headline and frontier grids through the decomposed layer chain and
// holds its core.Stats to sim.RunContext's for the same cell.
func TestDecomposedCellsMatchRunContext(t *testing.T) {
	for _, gw := range []gridWorkload{headlineWorkload(2000), frontierWorkload(frontierProfiles[:1], 2000)} {
		phases, err := gw.build(5)
		if err != nil {
			t.Fatal(err)
		}
		p := &pass{}
		for _, jobs := range phases {
			if err := runner.AttachTraces(jobs); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				opts := j.Opts
				opts.Trace = nil // the reference interprets the program directly
				res, err := sim.RunContext(context.Background(), j.Name, j.Config, j.Profile, opts)
				p.jobs = append(p.jobs, j)
				p.outs = append(p.outs, runner.Outcome{Job: j, Result: res, Err: err})
			}
		}
		o := &outcome{}
		m := map[string]float64{}
		if _, err := decompose(p, newTracer(), m, o); err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("%d of %d decomposed cells differ: %v", o.failed, o.attempted, o.failures)
		}
	}
}

func TestPinnedModesResolve(t *testing.T) {
	names := []string{campaignMode}
	for _, hc := range headlineConfigs {
		names = append(names, hc.mode)
	}
	names = append(names, frontierModes...)
	for _, c := range frontierCampaigns {
		names = append(names, c.mode)
	}
	for _, n := range names {
		if _, err := modeBase(n); err != nil {
			t.Error(err)
		}
	}
}

// TestModesNotTakenFromRegistry keeps the benchmark's machine lists
// pinned by name: its sources may not enumerate the mode registry, so a
// registered or removed mode changes the benchmark only through an edit
// to this directory.
func TestModesNotTakenFromRegistry(t *testing.T) {
	banned := map[string]bool{"Modes": true, "ModeNames": true, "FrontierConfigs": true, "HeadlineConfigs": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(af, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "core" || x.Name == "sim") {
					t.Errorf("%s uses %s.%s", f, x.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// declaredFuncs lists the functions of a repository package as the Go
// runtime names them in profiles.
func declaredFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "internal", pkg, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				switch rt := fd.Recv.List[0].Type.(type) {
				case *ast.StarExpr:
					name = "(*" + rt.X.(*ast.Ident).Name + ")." + name
				case *ast.Ident:
					name = rt.Name + "." + name
				}
			}
			out = append(out, "repro/internal/"+pkg+"."+name)
		}
	}
	return out
}

// TestStageMapCoversCheckedPackages holds stagemap.txt to the source:
// every function of core, irb, trb, fsim and sim is mapped, and every
// mapped function exists, so a rename fails here before it can skew a
// profile share.
func TestStageMapCoversCheckedPackages(t *testing.T) {
	sm, err := loadStageMap(stageMapText)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range []string{"core", "irb", "trb", "fsim", "sim"} {
		for _, fn := range declaredFuncs(t, pkg) {
			declared[fn] = true
			if _, ok := sm.exact[fn]; !ok {
				t.Errorf("stagemap.txt does not map %s", fn)
			}
		}
	}
	for fn := range sm.exact {
		if isChecked(fn) && !declared[fn] {
			t.Errorf("stagemap.txt maps %s, which no longer exists", fn)
		}
	}
}

// TestStageSharesSumToOne profiles a few cells and checks that every
// sampled function is mapped and the shares partition the samples.
func TestStageSharesSumToOne(t *testing.T) {
	sm, err := loadStageMap(stageMapText)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mustPass(t, frontierWorkload(frontierProfiles[:1], 2000), 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Fatalf("only %d samples", len(samples))
	}
	shares, err := sm.stageShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for name, v := range shares {
		if !strings.HasSuffix(name, "share") {
			t.Errorf("stage %q is not a share metric name", name)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.record(0, "root", "", t0, 10*time.Millisecond)
	tr.record(root, "a", "", t0.Add(1*time.Millisecond), 3*time.Millisecond)
	tr.record(root, "b", "", t0.Add(2*time.Millisecond), 4*time.Millisecond) // overlaps a
	got := tr.selfTimes()
	if got["root"] != 5*time.Millisecond || got["a"] != 3*time.Millisecond || got["b"] != 4*time.Millisecond {
		t.Fatalf("self times %v", got)
	}
}

func TestPhaseTail(t *testing.T) {
	ms := func(x ...int) []time.Duration {
		var out []time.Duration
		for _, v := range x {
			out = append(out, time.Duration(v)*time.Millisecond)
		}
		return out
	}
	if got := phaseTail(ms(10, 30, 20, 50), 2); got != 20*time.Millisecond {
		t.Fatalf("tail %v, want 20ms", got)
	}
	if got := phaseTail(ms(40), 2); got != 40*time.Millisecond {
		t.Fatalf("single-cell tail %v, want 40ms", got)
	}
}

func TestResultLineMatchesSpec(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{attempted: 3, failed: 1, metrics: map[string]float64{}}
	for _, m := range sp.EndToEnd {
		out.metrics[m.Name] = 1
	}
	if _, err := resultLine(out, sp.EndToEnd); err != nil {
		t.Fatal(err)
	}
	out.metrics["undeclared"] = 1
	if _, err := resultLine(out, sp.EndToEnd); err == nil {
		t.Fatal("an undeclared metric was accepted")
	}
	if _, err := resultLine(&outcome{attempted: 1, metrics: map[string]float64{}}, sp.EndToEnd); err == nil {
		t.Fatal("missing metrics were accepted")
	}
}
