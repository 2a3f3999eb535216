package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// quick returns options small enough for unit tests but large enough for
// the qualitative shapes to hold. Three benchmarks cover the key regimes:
// ALU-bound integer (bzip2), reuse-rich FP (mesa), memory-bound (ammp).
func quickOpts() Options {
	return Options{
		Insns:      60_000,
		Benchmarks: []string{"bzip2", "mesa", "ammp"},
	}
}

func TestFig2Shape(t *testing.T) {
	g, tbl, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Configs) != 9 || len(g.Benchmarks) != 3 {
		t.Fatalf("grid shape %dx%d", len(g.Benchmarks), len(g.Configs))
	}
	// bzip2 (ALU-bound): DIE must lose significantly, 2xALU must recover
	// most of it.
	const iSIE, iDIE, i2xALU = 0, 1, 2
	bz := 0
	dieLoss := stats.PctLoss(g.IPC(bz, iSIE), g.IPC(bz, iDIE))
	aluLoss := stats.PctLoss(g.IPC(bz, iSIE), g.IPC(bz, i2xALU))
	if dieLoss < 10 {
		t.Errorf("bzip2 DIE loss %.1f%%, want >= 10%%", dieLoss)
	}
	if aluLoss > dieLoss/2 {
		t.Errorf("bzip2 2xALU loss %.1f%% did not halve DIE loss %.1f%%", aluLoss, dieLoss)
	}
	// ammp (memory-bound): DIE costs almost nothing.
	ammp := 2
	if l := stats.PctLoss(g.IPC(ammp, iSIE), g.IPC(ammp, iDIE)); l > 5 {
		t.Errorf("ammp DIE loss %.1f%%, want < 5%%", l)
	}
	// The fully doubled machine is within a few percent of SIE.
	for b, bench := range g.Benchmarks {
		if l := stats.PctLoss(g.IPC(b, 0), g.IPC(b, 8)); l > 8 {
			t.Errorf("%s: fully doubled DIE still loses %.1f%%", bench, l)
		}
	}
	if !strings.Contains(tbl.String(), "AVERAGE") {
		t.Error("table missing average row")
	}
}

func TestHeadlineShape(t *testing.T) {
	g, sum, tbl, err := Headline(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// DIE-IRB must land between DIE and SIE on every benchmark (small
	// tolerance for the memory-bound case where all three coincide).
	for b, bench := range g.Benchmarks {
		sie, die, irb := g.IPC(b, 0), g.IPC(b, 1), g.IPC(b, 2)
		if irb < die*0.99 {
			t.Errorf("%s: DIE-IRB IPC %.3f below DIE %.3f", bench, irb, die)
		}
		if irb > sie*1.01 {
			t.Errorf("%s: DIE-IRB IPC %.3f above SIE %.3f", bench, irb, sie)
		}
	}
	// Aggregates: the reproduction's headline numbers must be positive
	// and within a plausible band of the paper's 50%/23%.
	if sum.ALUBandwidth < 15 || sum.ALUBandwidth > 90 {
		t.Errorf("ALU-bandwidth loss recovered %.0f%%, outside [15,90]", sum.ALUBandwidth)
	}
	if sum.OverallGain < 8 || sum.OverallGain > 60 {
		t.Errorf("overall loss recovered %.0f%%, outside [8,60]", sum.OverallGain)
	}
	if !strings.Contains(tbl.String(), "recovered") {
		t.Error("table missing the recovered summary line")
	}
}

func TestIRBHitReportsRates(t *testing.T) {
	g, _, err := IRBHit(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for b, bench := range g.Benchmarks {
		r := g.Results[b][0]
		if r.PCHitRate() <= 0 || r.PCHitRate() > 1 {
			t.Errorf("%s: pc hit rate %v", bench, r.PCHitRate())
		}
		if r.ReuseRate() <= 0 {
			t.Errorf("%s: zero reuse", bench)
		}
	}
}

func TestIRBSizeMonotoneOnAverage(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"gcc"} // the capacity-pressured benchmark
	g, _, err := IRBSize(opts)
	if err != nil {
		t.Fatal(err)
	}
	// gcc's static footprint overflows small IRBs: 4096 entries must
	// beat 128 entries.
	small, large := g.IPC(0, 0), g.IPC(0, len(g.Configs)-1)
	if large <= small {
		t.Errorf("gcc IPC did not grow with IRB size: %.3f @128 vs %.3f @4096", small, large)
	}
}

func TestConflictMechanismsHelpParser(t *testing.T) {
	// parser's leaf function aliases its hot loop in the direct-mapped
	// array (AliasLeaf); the victim buffer must recover those conflict
	// misses.
	opts := quickOpts()
	opts.Benchmarks = []string{"parser"}
	g, _, err := Conflict(opts)
	if err != nil {
		t.Fatal(err)
	}
	dm := g.Results[0][0]     // "DM"
	victim := g.Results[0][2] // "DM+victim16"
	if victim.PCHitRate() <= dm.PCHitRate() {
		t.Errorf("victim buffer PC hit rate %.3f not above direct-mapped %.3f",
			victim.PCHitRate(), dm.PCHitRate())
	}
	if victim.ReuseRate() <= dm.ReuseRate() {
		t.Errorf("victim buffer reuse %.3f not above direct-mapped %.3f",
			victim.ReuseRate(), dm.ReuseRate())
	}
}

func TestPortsThrottleWhenScarce(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	g, _, err := Ports(opts)
	if err != nil {
		t.Fatal(err)
	}
	one := g.Results[0][0]
	eight := g.Results[0][len(g.Configs)-1]
	if one.IRB.ReadDenied == 0 {
		t.Error("single read port never denied a lookup")
	}
	if eight.IRB.ReadDenied >= one.IRB.ReadDenied {
		t.Error("more ports did not reduce denials")
	}
	if eight.IPC < one.IPC {
		t.Errorf("IPC fell with more ports: %.3f -> %.3f", one.IPC, eight.IPC)
	}
}

func TestFaultCoverage(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	rows, tbl, err := Faults(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d campaigns, want 6", len(rows))
	}
	byKey := map[string]FaultRow{}
	for _, r := range rows {
		byKey[string(r.Mode)+"/"+string(r.Site)] = r
		if r.Injected == 0 {
			t.Errorf("%s/%s: no faults injected", r.Mode, r.Site)
		}
	}
	// FU faults must be overwhelmingly detected in both modes (the IRB
	// adds no coverage hole).
	for _, key := range []string{"DIE/fu", "DIE-IRB/fu"} {
		if r := byKey[key]; r.Coverage() < 0.8 {
			t.Errorf("%s coverage %.2f, want >= 0.8", key, r.Coverage())
		}
	}
	// IRB operand faults are harmless: never detected as mismatches
	// (they fail the reuse test instead) and never architectural.
	if r := byKey["DIE-IRB/irb-operand"]; r.Detected != 0 {
		t.Errorf("irb-operand faults detected %d times; they should just fail the reuse test", r.Detected)
	}
	if !strings.Contains(tbl.String(), "irb-result") {
		t.Error("table missing irb-result row")
	}
}

func TestFrontierSixWay(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	rows, tbl, err := Frontier(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("frontier has %d modes, want 6", len(rows))
	}
	byMode := map[core.Mode]FrontierRow{}
	var baseline *FrontierRow
	for i, r := range rows {
		byMode[r.Mode] = r
		if !r.Mode.Caps().Detects {
			if baseline != nil {
				t.Fatalf("two non-detecting rows: %s and %s", baseline.Mode, r.Mode)
			}
			baseline = &rows[i]
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v not positive", r.Mode, r.IPC)
		}
		if r.Streams != r.Mode.Caps().Streams {
			t.Errorf("%s: row reports %d streams, caps say %d",
				r.Mode, r.Streams, r.Mode.Caps().Streams)
		}
		if !r.Mode.Caps().Detects {
			continue
		}
		// Every detecting mode's campaigns must inject, detect, and
		// commit zero silent corruptions — the acceptance bar.
		if r.Inj.Injected == 0 {
			t.Errorf("%s: no faults injected", r.Mode)
		}
		if r.Inj.Silent != 0 {
			t.Errorf("%s: %d silent corruptions escaped", r.Mode, r.Inj.Silent)
		}
		if r.Inj.Coverage() < 0.5 {
			t.Errorf("%s: coverage %.2f implausibly low", r.Mode, r.Inj.Coverage())
		}
	}
	if baseline == nil {
		t.Fatal("frontier has no non-detecting baseline row")
	}
	// The baseline must run no campaign and define zero loss.
	if baseline.Inj.Injected != 0 || baseline.LossPct != 0 {
		t.Errorf("baseline row carries campaign data: %+v", baseline)
	}
	// Redundancy is not free: every multi-stream mode loses IPC on the
	// ALU-bound benchmark, and TMR loses at least as much as DIE.
	die, tmr := byMode[core.DIE], byMode[core.TMR]
	if die.LossPct <= 0 {
		t.Errorf("DIE loss %.1f%% not positive on bzip2", die.LossPct)
	}
	if tmr.LossPct < die.LossPct {
		t.Errorf("TMR loss %.1f%% below DIE loss %.1f%%", tmr.LossPct, die.LossPct)
	}
	// TMR corrects by vote (no rewind); REPLAY repairs at epoch scale.
	if tmr.Inj.Corrected == 0 {
		t.Error("TMR corrected no faults by vote")
	}
	if tmr.Inj.Recoveries != 0 {
		t.Errorf("TMR performed %d rewinds; the vote should correct in place", tmr.Inj.Recoveries)
	}
	// Trace reuse is a bandwidth win on top of DIE: the DIE-TRB row may
	// never lose more IPC than plain DIE on the same benchmark.
	trb := byMode[core.DIETRB]
	if trb.LossPct > die.LossPct {
		t.Errorf("DIE-TRB loss %.1f%% exceeds DIE loss %.1f%%", trb.LossPct, die.LossPct)
	}
	rep := byMode[core.REPLAY]
	if rep.Inj.Detected == 0 || rep.Inj.Recoveries == 0 {
		t.Errorf("REPLAY detected %d / recovered %d, want both positive",
			rep.Inj.Detected, rep.Inj.Recoveries)
	}
	if rep.Inj.MTTR() <= die.Inj.MTTR() {
		t.Errorf("REPLAY MTTR %.0f not above DIE's commit-time MTTR %.0f",
			rep.Inj.MTTR(), die.Inj.MTTR())
	}
	for _, want := range []string{"REPLAY", "TMR", "coverage", "mttr"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("frontier table missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	gd, _, err := AblationDup(opts)
	if err != nil {
		t.Fatal(err)
	}
	dupOnly, both := gd.Results[0][0], gd.Results[0][1]
	if both.IRB.Lookups <= dupOnly.IRB.Lookups {
		t.Error("both-streams policy did not increase IRB traffic")
	}

	gf, _, err := AblationFwd(opts)
	if err != nil {
		t.Fatal(err)
	}
	noFwd, asFU := gf.IPC(0, 0), gf.IPC(0, 1)
	if asFU > noFwd {
		t.Errorf("IRB-as-FU (issue-width tax) IPC %.3f above no-forwarding %.3f", asFU, noFwd)
	}
}

func TestConfigTable(t *testing.T) {
	tbl := ConfigTable()
	out := tbl.String()
	for _, want := range []string{"8/8/8/8", "128 entries", "1024-entry direct-mapped"} {
		if !strings.Contains(out, want) {
			t.Errorf("config table missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	opts := Options{Insns: 1000, Benchmarks: []string{"doom"}}
	if _, _, err := Fig2(opts); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFaultRowCoverage(t *testing.T) {
	r := FaultRow{Injected: 10, Detected: 8, Vanished: 2}
	if got := r.Coverage(); got != 1.0 {
		t.Errorf("coverage = %v, want 1.0", got)
	}
	r2 := FaultRow{Injected: 10, Detected: 5, Vanished: 0}
	if got := r2.Coverage(); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	empty := FaultRow{}
	if empty.Coverage() != 1 {
		t.Error("zero-fault campaign should have coverage 1")
	}
	_ = fault.Sites()
}

func TestSchedulerMatrix(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	g, _, err := Scheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	captureValue, captureName := g.Results[0][0], g.Results[0][1]
	decoupledValue := g.Results[0][2]
	// Name-based hit rates decrease (the paper's Section 3.3 caveat).
	if captureName.ReuseRate() >= captureValue.ReuseRate() {
		t.Errorf("name-based reuse %.2f not below value-based %.2f",
			captureName.ReuseRate(), captureValue.ReuseRate())
	}
	// The decoupled pipeline costs IPC but not much.
	if decoupledValue.IPC > captureValue.IPC {
		t.Errorf("decoupled IPC %.3f above data-capture %.3f",
			decoupledValue.IPC, captureValue.IPC)
	}
	if decoupledValue.IPC < captureValue.IPC*0.85 {
		t.Errorf("decoupled IPC %.3f lost more than 15%% vs %.3f",
			decoupledValue.IPC, captureValue.IPC)
	}
}

func TestClusterComparison(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"}
	g, _, err := Cluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	sie, die, clu, irb := g.IPC(0, 0), g.IPC(0, 1), g.IPC(0, 2), g.IPC(0, 3)
	if clu <= die {
		t.Errorf("replicated cluster IPC %.3f not above shared DIE %.3f", clu, die)
	}
	if clu > sie*1.01 {
		t.Errorf("cluster IPC %.3f above SIE %.3f", clu, sie)
	}
	if irb <= die {
		t.Errorf("DIE-IRB IPC %.3f not above DIE %.3f", irb, die)
	}
}

func TestPrior24Claim(t *testing.T) {
	g, tbl, err := Prior24(Options{Insns: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Benchmarks) != 20 {
		t.Fatalf("combined suites have %d benchmarks, want 20", len(g.Benchmarks))
	}
	worst := 0.0
	for b := range g.Benchmarks {
		if l := stats.PctLoss(g.IPC(b, 0), g.IPC(b, 1)); l > worst {
			worst = l
		}
	}
	// The paper quotes [24]: "up to 45% performance loss".
	if worst < 30 || worst > 50 {
		t.Errorf("worst-case DIE loss %.1f%%, want the paper's 'up to 45%%' band", worst)
	}
	if !strings.Contains(tbl.String(), "WORST") {
		t.Error("table missing worst row")
	}
	if _, _, err := Prior24(Options{Benchmarks: []string{"gzip"}}); err == nil {
		t.Error("prior24 accepted a benchmark subset")
	}
}

func TestReuseSources(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bzip2"} // branchy enough to squash, reuse-rich
	g, _, err := ReuseSources(opts)
	if err != nil {
		t.Fatal(err)
	}
	base, squash := g.Results[0][0], g.Results[0][1]
	sie, chain := g.Results[0][2], g.Results[0][3]
	// Squash reuse can only add reuse opportunities.
	if squash.Core.IRBReuseHits < base.Core.IRBReuseHits {
		t.Errorf("squash reuse lost hits: %d vs %d",
			squash.Core.IRBReuseHits, base.Core.IRBReuseHits)
	}
	// Chaining collapses dependent reuse chains: IPC must not drop.
	if chain.IPC < sie.IPC*0.999 {
		t.Errorf("chaining IPC %.3f below plain SIE-IRB %.3f", chain.IPC, sie.IPC)
	}
}

func TestReusePredictionCrossValidates(t *testing.T) {
	// The acceptance bar for the static predictor: across the full
	// benchmark grid, the predicted reuse rate must rank the benchmarks
	// essentially the way the timing core measures them.
	rows, rho, tbl, err := ReusePrediction(Options{Insns: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want the full 12-benchmark grid", len(rows))
	}
	if rho < 0.7 {
		t.Errorf("Spearman rank correlation %.3f, want >= 0.7\n%s", rho, tbl)
	}
	for _, r := range rows {
		if r.Predicted < 0 || r.Predicted > 1 {
			t.Errorf("%s: predicted reuse %.3f outside [0,1]", r.Bench, r.Predicted)
		}
		if r.Measured <= 0 {
			t.Errorf("%s: measured reuse %.3f not positive", r.Bench, r.Measured)
		}
	}
	if !strings.Contains(tbl.String(), "SPEARMAN") {
		t.Error("table missing SPEARMAN summary row")
	}
}
