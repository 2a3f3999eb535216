// Package experiments implements the paper's evaluation: each function
// regenerates one figure or table of the DIE-IRB paper (or one of this
// reproduction's ablations) over the 12 SPEC2000-like workloads, returning
// both a rendered table and the structured data that the benchmark harness
// and shape tests assert against. See DESIGN.md's experiment index for the
// mapping to the paper and EXPERIMENTS.md for recorded paper-vs-measured
// results.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Insns is the per-run instruction budget (sim.DefaultInsns if 0).
	Insns uint64
	// Verify enables oracle checking on every run.
	Verify bool
	// Benchmarks restricts the workload set (nil = all 12).
	Benchmarks []string
	// Parallelism is the worker count handed to the grid runner
	// (0 = runtime.GOMAXPROCS(0), 1 = the old serial double loop).
	Parallelism int
	// Progress, when non-nil, observes every completed grid cell.
	Progress func(runner.Progress)
	// Context, when non-nil, cancels a sweep mid-grid; the experiment
	// returns the context's error with whatever cells completed.
	Context context.Context
	// CellTimeout bounds each grid cell's wall-clock time (0 = unbounded);
	// see runner.Options.CellTimeout. A hung cell times out (after one
	// retry) with a per-cell error instead of stalling the whole sweep.
	CellTimeout time.Duration
	// Cache, when non-nil, is handed to the grid runner so previously
	// simulated cells are served from the content-addressed result store
	// instead of being re-run; see runner.Options.Cache. The serving
	// daemon shares one cache across every experiment and run request.
	Cache runner.Cache
}

func (o Options) simOpts() sim.Options {
	return sim.Options{Insns: o.Insns, Verify: o.Verify}
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) runnerOpts() runner.Options {
	return runner.Options{
		Parallelism: o.Parallelism,
		Progress:    o.Progress,
		CellTimeout: o.CellTimeout,
		Cache:       o.Cache,
	}
}

// Grid holds one experiment's results: a matrix of runs indexed by
// benchmark and configuration.
type Grid struct {
	Benchmarks []string
	Configs    []string
	Results    [][]sim.Result // [bench][config]
	// Errs records the per-cell simulation error, parallel to Results
	// (nil on success). One failed cell no longer aborts a sweep: the
	// other cells still run and the failures are reported together.
	Errs [][]error
}

// Err joins every recorded per-cell error, labelled by cell, or returns
// nil when the whole grid succeeded.
func (g *Grid) Err() error {
	var errs []error
	for b, row := range g.Errs {
		for c, err := range row {
			if err != nil {
				errs = append(errs, fmt.Errorf("%s on %s: %w", g.Benchmarks[b], g.Configs[c], err))
			}
		}
	}
	return errors.Join(errs...)
}

// IPC returns the IPC of (bench, config) by index.
func (g *Grid) IPC(b, c int) float64 { return g.Results[b][c].IPC }

// ConfigIPCs returns the IPC column for configuration index c.
func (g *Grid) ConfigIPCs(c int) []float64 {
	out := make([]float64, len(g.Benchmarks))
	for b := range g.Benchmarks {
		out[b] = g.Results[b][c].IPC
	}
	return out
}

// runGrid simulates every benchmark on every configuration through the
// parallel runner.
func runGrid(cfgs []sim.NamedConfig, opts Options) (*Grid, error) {
	profiles, err := workload.ByNames(opts.Benchmarks)
	if err != nil {
		return nil, err
	}
	return runGridProfiles(cfgs, profiles, opts)
}

// runGridProfiles fans the (profile × configuration) cells out across
// the runner's worker pool and reassembles the grid in input order. All
// cells run even if some fail; the returned error aggregates every
// per-cell failure (and the context error, on cancellation) while the
// grid keeps whatever completed.
func runGridProfiles(cfgs []sim.NamedConfig, profiles []workload.Profile, opts Options) (*Grid, error) {
	outs, err := runner.Run(opts.ctx(), gridJobs(cfgs, profiles, opts), opts.runnerOpts())
	return newGrid(cfgs, profiles, outs), err
}

// gridJobs builds one cell per (profile × configuration), profile-major.
func gridJobs(cfgs []sim.NamedConfig, profiles []workload.Profile, opts Options) []runner.Job {
	jobs := make([]runner.Job, 0, len(profiles)*len(cfgs))
	for _, p := range profiles {
		for _, nc := range cfgs {
			jobs = append(jobs, runner.Job{Name: nc.Name, Config: nc.Cfg, Profile: p, Opts: opts.simOpts()})
		}
	}
	return jobs
}

// newGrid assembles the outcomes of gridJobs' cells into a Grid.
func newGrid(cfgs []sim.NamedConfig, profiles []workload.Profile, outs []runner.Outcome) *Grid {
	g := &Grid{}
	for _, nc := range cfgs {
		g.Configs = append(g.Configs, nc.Name)
	}
	for b, p := range profiles {
		g.Benchmarks = append(g.Benchmarks, p.Name)
		row := make([]sim.Result, len(cfgs))
		errRow := make([]error, len(cfgs))
		for c := range cfgs {
			o := outs[b*len(cfgs)+c]
			row[c], errRow[c] = o.Result, o.Err
		}
		g.Results = append(g.Results, row)
		g.Errs = append(g.Errs, errRow)
	}
	return g
}

// Fig2 reproduces the paper's Figure 2: percentage IPC loss with respect
// to SIE for the base DIE and the seven capacity-doubled DIE variants.
// The returned grid's first configuration column is the SIE baseline.
func Fig2(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.Fig2Configs(), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs[1:]...)
	t := stats.NewTable("Figure 2: % IPC loss vs SIE", headers...)
	sums := make([]float64, len(g.Configs)-1)
	for b, bench := range g.Benchmarks {
		cells := []any{bench}
		sie := g.IPC(b, 0)
		for c := 1; c < len(g.Configs); c++ {
			loss := stats.PctLoss(sie, g.IPC(b, c))
			sums[c-1] += loss
			cells = append(cells, loss)
		}
		t.AddRow(cells...)
	}
	avg := []any{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, s/float64(len(g.Benchmarks)))
	}
	t.AddRow(avg...)
	return g, t, nil
}

// HeadlineSummary aggregates the headline experiment.
type HeadlineSummary struct {
	AvgLossDIE   float64 // mean % IPC loss of DIE vs SIE
	AvgLossIRB   float64 // mean % IPC loss of DIE-IRB vs SIE
	AvgLoss2xALU float64 // mean % IPC loss of DIE-2xALU vs SIE
	OverallGain  float64 // % of the DIE loss recovered by DIE-IRB
	ALUBandwidth float64 // % of the ALU-bandwidth loss (DIE -> 2xALU) recovered
}

// Headline reproduces the paper's central result (the Section 4 IPC
// comparison summarized in the abstract): SIE, DIE, DIE-IRB and DIE-2xALU
// per benchmark, with the "IPC loss gained back" aggregates. The paper
// reports recovering nearly 50% of the ALU-bandwidth loss and 23% of the
// overall loss.
func Headline(opts Options) (*Grid, HeadlineSummary, *stats.Table, error) {
	g, err := runGrid(sim.HeadlineConfigs(), opts)
	if err != nil {
		return g, HeadlineSummary{}, nil, err
	}
	t := stats.NewTable("Headline: IPC by configuration",
		"bench", "SIE", "DIE", "DIE-IRB", "DIE-2xALU", "loss%", "IRB-loss%", "reuse")
	var sum HeadlineSummary
	n := float64(len(g.Benchmarks))
	for b, bench := range g.Benchmarks {
		sie, die, irb, alu2 := g.IPC(b, 0), g.IPC(b, 1), g.IPC(b, 2), g.IPC(b, 3)
		lossDIE := stats.PctLoss(sie, die)
		lossIRB := stats.PctLoss(sie, irb)
		t.AddRow(bench, sie, die, irb, alu2, lossDIE, lossIRB, g.Results[b][2].ReuseRate())
		sum.AvgLossDIE += lossDIE / n
		sum.AvgLossIRB += lossIRB / n
		sum.AvgLoss2xALU += stats.PctLoss(sie, alu2) / n
	}
	sum.OverallGain = stats.Recovered(sum.AvgLossDIE, 0, sum.AvgLossIRB)
	sum.ALUBandwidth = stats.Recovered(sum.AvgLossDIE, sum.AvgLoss2xALU, sum.AvgLossIRB)
	t.AddRow("AVERAGE", "", "", "", "", sum.AvgLossDIE, sum.AvgLossIRB, "")
	t.AddRow(fmt.Sprintf("recovered: %.0f%% of ALU-bandwidth loss, %.0f%% of overall loss",
		sum.ALUBandwidth, sum.OverallGain))
	return g, sum, t, nil
}

// IRBHit reproduces the IRB effectiveness figure: per-benchmark PC hit
// rate, reuse (operand-match) rate of the duplicate stream, and the port-
// denial rates, on the base DIE-IRB machine.
func IRBHit(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid([]sim.NamedConfig{{Name: "DIE-IRB", Cfg: core.BaseDIEIRB()}}, opts)
	if err != nil {
		return g, nil, err
	}
	t := stats.NewTable("IRB effectiveness (base 1024-entry direct-mapped)",
		"bench", "pc-hit", "reuse", "not-ready", "rd-denied", "wr-denied")
	for b, bench := range g.Benchmarks {
		r := g.Results[b][0]
		t.AddRow(bench, r.PCHitRate(), r.ReuseRate(),
			stats.Ratio(r.Core.IRBNotReady, r.IRB.Lookups),
			stats.Ratio(r.IRB.ReadDenied, r.IRB.Lookups),
			stats.Ratio(r.IRB.WriteDenied, r.IRB.Inserts+r.IRB.WriteDenied))
	}
	return g, t, nil
}

// IRBSize reproduces the IRB size sensitivity figure: average IPC across
// the suite as the buffer grows from 128 to 4096 entries, with the paper's
// 1024-entry point in the middle.
func IRBSize(opts Options) (*Grid, *stats.Table, error) {
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	g, err := runGrid(sim.IRBSizeConfigs(sizes), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("IRB size sensitivity: IPC", headers...)
	addAvgRows(t, g)
	return g, t, nil
}

// Conflict reproduces the conflict-miss reduction ablation: direct-mapped
// vs victim-buffer vs set-associative IRBs at equal capacity.
func Conflict(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.ConflictConfigs(), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("Conflict-miss reduction: IPC (and PC-hit rate)", headers...)
	for b, bench := range g.Benchmarks {
		cells := []any{bench}
		for c := range g.Configs {
			r := g.Results[b][c]
			cells = append(cells, fmt.Sprintf("%.3f/%.2f", r.IPC, r.PCHitRate()))
		}
		t.AddRow(cells...)
	}
	avgRow(t, g)
	return g, t, nil
}

// Ports reproduces the IRB port sensitivity figure.
func Ports(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.PortConfigs([]int{1, 2, 4, 8}), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("IRB port sensitivity: IPC", headers...)
	addAvgRows(t, g)
	return g, t, nil
}

// AblationDup compares the paper's duplicate-only IRB policy against
// routing both streams through the buffer (higher port pressure for
// little additional benefit, since the primary must execute anyway).
func AblationDup(opts Options) (*Grid, *stats.Table, error) {
	both := core.BaseDIEIRB()
	both.IRBBothStreams = true
	g, err := runGrid([]sim.NamedConfig{
		{Name: "dup-only", Cfg: core.BaseDIEIRB()},
		{Name: "both-streams", Cfg: both},
	}, opts)
	if err != nil {
		return g, nil, err
	}
	t := stats.NewTable("Ablation A: IRB stream policy",
		"bench", "dup-only IPC", "both IPC", "dup-only rd-denied", "both rd-denied")
	for b, bench := range g.Benchmarks {
		d, bo := g.Results[b][0], g.Results[b][1]
		t.AddRow(bench, d.IPC, bo.IPC,
			stats.Ratio(d.IRB.ReadDenied, d.IRB.Lookups),
			stats.Ratio(bo.IRB.ReadDenied, bo.IRB.Lookups))
	}
	return g, t, nil
}

// AblationFwd compares the paper's no-forwarding IRB (duplicates woken by
// primary results) against the prior-work IRB-as-functional-unit design,
// whose result broadcasts grow the wakeup logic like extra issue width —
// modeled as issue slots consumed by the IRB's read ports.
func AblationFwd(opts Options) (*Grid, *stats.Table, error) {
	asFU := core.BaseDIEIRB()
	asFU.IRBAsFU = true
	g, err := runGrid([]sim.NamedConfig{
		{Name: "no-forwarding", Cfg: core.BaseDIEIRB()},
		{Name: "IRB-as-FU", Cfg: asFU},
	}, opts)
	if err != nil {
		return g, nil, err
	}
	t := stats.NewTable("Ablation B: IRB result forwarding",
		"bench", "no-fwd IPC", "as-FU IPC", "as-FU penalty %")
	for b, bench := range g.Benchmarks {
		noFwd, fu := g.IPC(b, 0), g.IPC(b, 1)
		t.AddRow(bench, noFwd, fu, stats.PctLoss(noFwd, fu))
	}
	return g, t, nil
}

// addAvgRows renders per-benchmark IPC rows plus an average row.
func addAvgRows(t *stats.Table, g *Grid) {
	for b, bench := range g.Benchmarks {
		cells := []any{bench}
		for c := range g.Configs {
			cells = append(cells, g.IPC(b, c))
		}
		t.AddRow(cells...)
	}
	avgRow(t, g)
}

func avgRow(t *stats.Table, g *Grid) {
	cells := []any{"AVERAGE"}
	for c := range g.Configs {
		cells = append(cells, stats.Mean(g.ConfigIPCs(c)))
	}
	t.AddRow(cells...)
}

// FaultRow is one fault-injection campaign's outcome.
type FaultRow struct {
	Mode      core.Mode
	Site      fault.Site
	Injected  uint64
	Detected  uint64
	Masked    uint64 // corrupted copies whose signatures still matched
	Silent    uint64 // corrupted results committed undetected (SDC escapes)
	Corrected uint64 // outvoted by a voting majority: repaired with no rewind
	// Vanished faults struck wrong-path instructions or IRB entries
	// never reused — architecturally harmless by construction.
	Vanished int64

	// Recovery accounting (see core.Stats).
	Recoveries     uint64 // architectural rewinds performed
	Retries        uint64 // recoveries beyond the first for one PC
	Repairs        uint64 // repair windows closed
	RecoveryCycles uint64 // detection-to-clean-commit cycles, summed
	Scrubs         uint64 // corrupted IRB entries + TRB windows invalidated
}

// Coverage is detected faults per architecturally surviving fault.
func (r FaultRow) Coverage() float64 {
	live := r.Injected - uint64(max64(r.Vanished, 0))
	if live == 0 {
		return 1
	}
	return float64(r.Detected) / float64(live)
}

// MTTR is the campaign's mean detection-to-repair time in cycles.
func (r FaultRow) MTTR() float64 { return stats.Ratio(r.RecoveryCycles, r.Repairs) }

func max64(a int64, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// faultRate is the per-opportunity injection rate of the Faults,
// Frontier and TRB campaigns: high enough that every campaign cell fires.
const faultRate = 3e-4

// campaign is one injection campaign: a mode's baseline machine struck
// at one site at one rate, on every profile of the run.
type campaign struct {
	mode core.Mode
	cfg  core.Config
	site fault.Site
	rate float64
}

// campaigns derives an injection matrix from the mode registry, in
// registry order. Each detecting mode among modes (every detecting mode
// when none is named) faces single-bit strikes at the FU output and the
// forwarding path; a mode with a reuse buffer also faces strikes in the
// IRB result array and its operand fields.
func campaigns(rate float64, modes ...core.Mode) []campaign {
	var out []campaign
	for _, mi := range core.Modes() {
		if !mi.Caps.Detects || len(modes) > 0 && !slices.Contains(modes, mi.Mode) {
			continue
		}
		sites := []fault.Site{fault.FU, fault.Forward}
		if mi.Caps.UsesIRB {
			sites = append(sites, fault.IRBResult, fault.IRBOperand)
		}
		for _, s := range sites {
			out = append(out, campaign{mi.Mode, mi.Base(), s, rate})
		}
	}
	return out
}

// modeConfigs returns the registered baseline machines of modes, in
// registry order.
func modeConfigs(modes ...core.Mode) []sim.NamedConfig {
	var out []sim.NamedConfig
	for _, mi := range core.Modes() {
		if slices.Contains(modes, mi.Mode) {
			out = append(out, sim.NamedConfig{Name: string(mi.Mode), Cfg: mi.Base()})
		}
	}
	return out
}

// accumulate folds one cell's counters into the campaign row.
func (r *FaultRow) accumulate(injected uint64, st *core.Stats) {
	r.Injected += injected
	r.Detected += st.FaultsDetected
	r.Masked += st.FaultsMasked
	r.Silent += st.FaultsSilent
	r.Corrected += st.FaultsCorrected
	r.Recoveries += st.FaultRecoveries
	r.Retries += st.FaultRetries
	r.Repairs += st.FaultRepairs
	r.RecoveryCycles += st.FaultRecoveryCycles
	r.Scrubs += st.IRBScrubs + st.TRBScrubs
}

// add sums another row's counters into r.
func (r *FaultRow) add(o FaultRow) {
	r.Injected += o.Injected
	r.Detected += o.Detected
	r.Masked += o.Masked
	r.Silent += o.Silent
	r.Corrected += o.Corrected
	r.Vanished += o.Vanished
	r.Recoveries += o.Recoveries
	r.Retries += o.Retries
	r.Repairs += o.Repairs
	r.RecoveryCycles += o.RecoveryCycles
	r.Scrubs += o.Scrubs
}

// runCampaigns runs the fault-free grid of cfgs and every campaign of cs
// on every profile of opts in one runner call, so each workload's trace
// is captured once for both and a campaign's cells can batch with the
// fault-free cell of their machine. Each campaign cell is oracle-verified
// with its own injector seeded by the profile, and each campaign's cells
// fold into one row; ipc holds each campaign's suite-mean IPC under
// injection. The fold is order-independent, so no worker count changes a
// counter.
func runCampaigns(cfgs []sim.NamedConfig, cs []campaign, opts Options) (g *Grid, rows []FaultRow, ipc []float64, err error) {
	profiles, err := workload.ByNames(opts.Benchmarks)
	if err != nil {
		return nil, nil, nil, err
	}
	jobs := gridJobs(cfgs, profiles, opts)
	grid := len(jobs)
	var injs []*fault.Injector
	for _, c := range cs {
		for _, p := range profiles {
			inj, err := fault.New(fault.Config{Site: c.site, Rate: c.rate, Seed: p.Seed})
			if err != nil {
				return nil, nil, nil, err
			}
			o := opts.simOpts()
			o.Injector = inj
			o.Verify = true
			jobs = append(jobs, runner.Job{
				Name:    string(c.mode) + "@" + string(c.site),
				Config:  c.cfg,
				Profile: p,
				Opts:    o,
			})
			injs = append(injs, inj)
		}
	}
	outs, err := runner.Run(opts.ctx(), jobs, opts.runnerOpts())
	if err != nil {
		return nil, nil, nil, err
	}
	g, outs = newGrid(cfgs, profiles, outs[:grid]), outs[grid:]
	rows = make([]FaultRow, len(cs))
	ipc = make([]float64, len(cs))
	for ci, c := range cs {
		row := FaultRow{Mode: c.mode, Site: c.site}
		ipcs := make([]float64, len(profiles))
		for pi := range profiles {
			i := ci*len(profiles) + pi
			row.accumulate(injs[i].Injected, &outs[i].Result.Core)
			ipcs[pi] = outs[i].Result.IPC
		}
		row.Vanished = int64(row.Injected) - int64(row.Detected) - int64(row.Masked) - int64(row.Silent)
		rows[ci], ipc[ci] = row, stats.Mean(ipcs)
	}
	return g, rows, ipc, nil
}

// Faults validates the redundancy argument of Section 3.4: single-bit
// faults injected into FU outputs, forwarding paths and the IRB array must
// be caught by the commit-time pair check (or be architecturally
// harmless), and DIE-IRB's coverage must match plain DIE's — the IRB needs
// no dedicated protection. Every detection triggers a real architectural
// rewind and re-execution, so the runs finish with oracle-verified final
// state: the oracle check is forced on regardless of Options.Verify.
func Faults(opts Options) ([]FaultRow, *stats.Table, error) {
	_, rows, _, err := runCampaigns(nil, campaigns(faultRate, core.DIE, core.DIEIRB), opts)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Fault injection: detection coverage of the check-&-retire comparison",
		"mode", "site", "injected", "detected", "masked", "silent", "vanished",
		"coverage", "recoveries", "MTTR", "scrubs")
	for _, row := range rows {
		t.AddRow(string(row.Mode), string(row.Site), row.Injected, row.Detected,
			row.Masked, row.Silent, row.Vanished, row.Coverage(),
			row.Recoveries, row.MTTR(), row.Scrubs)
	}
	return rows, t, nil
}

// RecoveryRow is one (campaign × fault-rate) point of the recovery-overhead
// experiment: the suite-mean IPC under sustained injection next to the same
// machine's fault-free IPC, plus the aggregated recovery counters.
type RecoveryRow struct {
	FaultRow
	Rate    float64 // per-opportunity injection probability
	IPC     float64 // suite-mean IPC under injection
	BaseIPC float64 // suite-mean fault-free IPC of the same machine
}

// OverheadPct is the % IPC lost to detection-triggered rewinds.
func (r RecoveryRow) OverheadPct() float64 { return stats.PctLoss(r.BaseIPC, r.IPC) }

// RecoveryRates are the injection rates the recovery-overhead experiment
// sweeps, spanning "a fault every few hundred thousand opportunities" to
// the sustained-assault regime of the acceptance criteria.
func RecoveryRates() []float64 { return []float64{1e-5, 1e-4, 1e-3} }

// Recovery measures what real check-&-retire recovery costs: IPC and MTTR
// versus fault rate for all six mode×site campaigns, against each machine's
// fault-free baseline. All runs execute to completion with the verify
// oracle on — a detected fault is re-executed, never stall-forged — so any
// campaign cell that cannot reach an architecturally correct final state
// fails loudly rather than skewing the table.
func Recovery(opts Options) ([]RecoveryRow, *stats.Table, error) {
	opts.Verify = true
	modes := []core.Mode{core.DIE, core.DIEIRB}
	var cs []campaign
	for _, c := range campaigns(0, modes...) {
		for _, rate := range RecoveryRates() {
			c.rate = rate
			cs = append(cs, c)
		}
	}
	g, frows, ipc, err := runCampaigns(modeConfigs(modes...), cs, opts)
	if err != nil {
		return nil, nil, err
	}
	baseIPC := make(map[core.Mode]float64, len(g.Configs))
	for c, name := range g.Configs {
		baseIPC[core.Mode(name)] = stats.Mean(g.ConfigIPCs(c))
	}

	t := stats.NewTable("Recovery overhead: IPC and MTTR vs fault rate",
		"mode", "site", "rate", "IPC", "base-IPC", "overhead%",
		"detected", "recoveries", "retries", "MTTR", "silent", "scrubs")
	rows := make([]RecoveryRow, len(frows))
	for i, fr := range frows {
		row := RecoveryRow{FaultRow: fr, Rate: cs[i].rate, IPC: ipc[i], BaseIPC: baseIPC[fr.Mode]}
		rows[i] = row
		t.AddRow(string(row.Mode), string(row.Site), fmt.Sprintf("%.0e", row.Rate), row.IPC, row.BaseIPC,
			row.OverheadPct(), row.Detected, row.Recoveries, row.Retries,
			row.MTTR(), row.Silent, row.Scrubs)
	}
	return rows, t, nil
}

// ConfigTable renders the baseline machine parameters (the paper's
// configuration table).
func ConfigTable() *stats.Table {
	cfg := core.BaseSIE()
	t := stats.NewTable("Baseline machine configuration (paper Section 2.2)",
		"parameter", "value")
	t.AddRow("fetch/decode/issue/commit width", fmt.Sprintf("%d/%d/%d/%d",
		cfg.FetchWidth, cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth))
	t.AddRow("RUU (ROB + issue window)", fmt.Sprintf("%d entries", cfg.RUUSize))
	t.AddRow("load/store queue", fmt.Sprintf("%d entries", cfg.LSQSize))
	t.AddRow("integer ALUs", 4)
	t.AddRow("integer mult/div", 2)
	t.AddRow("FP adders", 2)
	t.AddRow("FP mult/div/sqrt", 1)
	t.AddRow("cache ports", 2)
	t.AddRow("branch predictor", "combined bimodal+gshare, 2K entries each")
	t.AddRow("BTB / RAS", "512x4 / 8")
	t.AddRow("L1I", "16KB 2-way 32B, 1 cycle")
	t.AddRow("L1D", "16KB 4-way 32B, 1 cycle")
	t.AddRow("L2", "256KB 4-way 64B, 6 cycles")
	t.AddRow("memory", "100 cycles")
	t.AddRow("IRB", "1024-entry direct-mapped, 4R+2W+2RW ports, 3-cycle pipelined lookup")
	return t
}

// Scheduler reproduces the Section 3.3 discussion: DIE-IRB IPC under the
// data-capture vs decoupled (non-data-capture) schedulers, each with the
// value-based and name-based reuse tests. The paper expects the decoupled
// pipeline to cost little IPC and name-based hit rates to decrease.
func Scheduler(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.SchedulerConfigs(), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("Section 3.3 schedulers: IPC (and duplicate reuse rate)", headers...)
	for b, bench := range g.Benchmarks {
		cells := []any{bench}
		for c := range g.Configs {
			r := g.Results[b][c]
			cells = append(cells, fmt.Sprintf("%.3f/%.2f", r.IPC, r.ReuseRate()))
		}
		t.AddRow(cells...)
	}
	avgRow(t, g)
	return g, t, nil
}

// Cluster reproduces the clustered-architecture comparison the paper's
// Section 3 discusses and defers: a DIE whose duplicate stream runs on a
// second, fully replicated cluster (nearly spatial redundancy) against the
// shared-resource DIE and the proposed DIE-IRB.
func Cluster(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.ClusterConfigs(), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("Clustered alternative: IPC (cluster doubles every FU)", headers...)
	addAvgRows(t, g)
	return g, t, nil
}

// Prior24 reproduces the claim the paper's introduction quotes from the
// original DIE proposal (Ray, Hoe & Falsafi [24], evaluated on a mix of
// SPEC95 and SPEC2000 programs): substantial average IPC loss for DIE vs
// SIE with a worst case approaching 45%. It runs both suites combined —
// the SPEC95 profiles are otherwise untouched by the other experiments.
func Prior24(opts Options) (*Grid, *stats.Table, error) {
	if len(opts.Benchmarks) > 0 {
		return nil, nil, fmt.Errorf("experiments: prior24 always runs the combined suites")
	}
	cfgs := []sim.NamedConfig{
		{Name: "SIE", Cfg: core.BaseSIE()},
		{Name: "DIE", Cfg: core.BaseDIE()},
	}
	g, err := runGridProfiles(cfgs, append(workload.SPEC95(), workload.SPEC2000()...), opts)
	if err != nil {
		return g, nil, err
	}
	t := stats.NewTable("Prior work [24] claim, SPEC95+SPEC2000 combined: DIE loss vs SIE",
		"bench", "SIE IPC", "DIE IPC", "loss%")
	var losses []float64
	worst := 0.0
	for b, bench := range g.Benchmarks {
		loss := stats.PctLoss(g.IPC(b, 0), g.IPC(b, 1))
		losses = append(losses, loss)
		if loss > worst {
			worst = loss
		}
		t.AddRow(bench, g.IPC(b, 0), g.IPC(b, 1), loss)
	}
	t.AddRow("AVERAGE", "", "", stats.Mean(losses))
	t.AddRow("WORST", "", "", worst)
	return g, t, nil
}

// ReuseSources evaluates the two extra reuse sources of the instruction-
// reuse literature the paper builds on ([29,30]): squash reuse (wrong-path
// results harvested into the IRB at recovery) on DIE-IRB, and dependent-
// chain collapsing (Sn+d) on the prior-work single-stream SIE-IRB.
func ReuseSources(opts Options) (*Grid, *stats.Table, error) {
	g, err := runGrid(sim.ReuseSourceConfigs(), opts)
	if err != nil {
		return g, nil, err
	}
	headers := append([]string{"bench"}, g.Configs...)
	t := stats.NewTable("Reuse sources: IPC (and reuse rate)", headers...)
	for b, bench := range g.Benchmarks {
		cells := []any{bench}
		for c := range g.Configs {
			r := g.Results[b][c]
			cells = append(cells, fmt.Sprintf("%.3f/%.2f", r.IPC, r.ReuseRate()))
		}
		t.AddRow(cells...)
	}
	avgRow(t, g)
	return g, t, nil
}

// PredictionRow pairs the static predictor's estimate for one benchmark
// with the reuse rate the timing core measured.
type PredictionRow struct {
	Bench     string
	Predicted float64 // analysis.Prediction.ReuseRate on the exact program run
	Measured  float64 // sim.Result.ReuseRate on the base DIE-IRB machine
	HotInstrs int     // static reuse-eligible in-loop instructions
	Conflict  float64 // predicted hot instructions per occupied IRB set
}

// ReusePrediction cross-validates the static IRB-reuse predictor
// (internal/analysis) against the measured duplicate-stream reuse rate of
// the base DIE-IRB machine. Each benchmark's program is analyzed exactly
// as generated for its run (sim.ProgramFor), then simulated; the returned
// coefficient is the Spearman rank correlation between the predicted and
// measured columns — the predictor's contract is ordering programs by
// reuse potential, not matching absolute rates.
func ReusePrediction(opts Options) ([]PredictionRow, float64, *stats.Table, error) {
	profiles, err := workload.ByNames(opts.Benchmarks)
	if err != nil {
		return nil, 0, nil, err
	}
	cfgs := []sim.NamedConfig{{Name: "DIE-IRB", Cfg: core.BaseDIEIRB()}}
	g, err := runGridProfiles(cfgs, profiles, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	t := stats.NewTable("Static reuse prediction vs measured (base DIE-IRB)",
		"bench", "predicted", "measured", "hot-instrs", "conflict")
	rows := make([]PredictionRow, 0, len(profiles))
	var preds, meas []float64
	for b, p := range profiles {
		prog, err := sim.ProgramFor(p, opts.simOpts())
		if err != nil {
			return nil, 0, nil, err
		}
		pred := analysis.Analyze(prog).Prediction
		row := PredictionRow{
			Bench:     p.Name,
			Predicted: pred.ReuseRate,
			Measured:  g.Results[b][0].ReuseRate(),
			HotInstrs: pred.HotInstrs,
			Conflict:  pred.ConflictRatio,
		}
		rows = append(rows, row)
		preds = append(preds, row.Predicted)
		meas = append(meas, row.Measured)
		t.AddRow(row.Bench, row.Predicted, row.Measured, row.HotInstrs, row.Conflict)
	}
	rho := stats.Spearman(preds, meas)
	t.AddRow("SPEARMAN", "", "", "", rho)
	return rows, rho, t, nil
}
