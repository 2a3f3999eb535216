//go:build !perfbench_legacy

package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	frontierInsns = 10_000
	frontierRate  = 3e-4 // per injection opportunity: every campaign cell fires
)

// frontierProfiles is the frontier's workload subset, pinned by name.
var frontierProfiles = []string{"gzip", "gcc", "mcf", "mesa"}

// frontierModes are the six frontier machines, pinned by name in the
// order the registry lists them today.
var frontierModes = []string{"SIE", "DIE", "DIE-IRB", "REPLAY", "TMR", "DIE-TRB"}

// frontierCampaigns is the injection matrix: every detecting mode faces
// strikes at the FU output and on the forwarding path; modes with a reuse
// buffer also face strikes in the IRB result array and operand fields.
var frontierCampaigns = []struct {
	mode  string
	sites []fault.Site
}{
	{"DIE", []fault.Site{fault.FU, fault.Forward}},
	{"DIE-IRB", []fault.Site{fault.FU, fault.Forward, fault.IRBResult, fault.IRBOperand}},
	{"REPLAY", []fault.Site{fault.FU, fault.Forward}},
	{"TMR", []fault.Site{fault.FU, fault.Forward}},
	{"DIE-TRB", []fault.Site{fault.FU, fault.Forward, fault.IRBResult, fault.IRBOperand}},
}

func init() { workloads["frontier"] = runFrontier }

func runFrontier(e *env) (*outcome, error) {
	gw := frontierWorkload(frontierProfiles, frontierInsns)
	if e.trace {
		return traceGridWorkload(gw, e)
	}
	return runGridWorkload(gw, e)
}

// frontierWorkload mirrors experiments.Frontier: phase one is the
// verified fault-free grid (bench-major), phase two the verified
// injection campaigns (campaign-major). Injector seeds are the profile
// seeds XOR the workload seed, so seed 0 reproduces the experiment.
func frontierWorkload(profileNames []string, insns uint64) gridWorkload {
	return gridWorkload{
		build: func(seed uint64) ([][]runner.Job, error) {
			profiles, err := profilesByName(profileNames)
			if err != nil {
				return nil, err
			}
			opts := sim.Options{Insns: insns, Seed: seed, Verify: true}
			var grid, camp []runner.Job
			for _, p := range profiles {
				for _, m := range frontierModes {
					cfg, err := modeBase(m)
					if err != nil {
						return nil, err
					}
					grid = append(grid, runner.Job{Name: m, Config: cfg, Profile: p, Opts: opts})
				}
			}
			for _, c := range frontierCampaigns {
				cfg, err := modeBase(c.mode)
				if err != nil {
					return nil, err
				}
				for _, site := range c.sites {
					for _, p := range profiles {
						inj, err := fault.New(fault.Config{Site: site, Rate: frontierRate, Seed: p.Seed ^ seed})
						if err != nil {
							return nil, err
						}
						o := opts
						o.Injector = inj
						camp = append(camp, runner.Job{Name: c.mode + "@" + string(site), Config: cfg, Profile: p, Opts: o})
					}
				}
			}
			return [][]runner.Job{grid, camp}, nil
		},
		check:    checkNoSilent,
		scaleRun: true,
		model: func(jobs []runner.Job, outs []runner.Outcome) []reportLine {
			rows, err := frontierRows(len(profileNames), jobs, outs)
			if err != nil {
				return nil
			}
			var camps []experiments.FaultRow
			for _, r := range rows {
				if r.Mode.Caps().Detects {
					camps = append(camps, r.Inj)
				}
			}
			return []reportLine{{"coverage_pct", coveragePct(camps), "%", "detected over live faults, all detecting modes"}}
		},
	}
}

// checkNoSilent fails a cell whose injected faults escaped undetected.
func checkNoSilent(_ runner.Job, res sim.Result) error {
	if res.Core.FaultsSilent != 0 {
		return fmt.Errorf("%d silent corruptions", res.Core.FaultsSilent)
	}
	return nil
}

// injected is the fault count of a cell's injector (0 without one).
func injected(j runner.Job) uint64 {
	if bi, ok := j.Opts.Injector.(core.BatchableInjector); ok {
		return bi.InjectedCount()
	}
	return 0
}

// accumulate folds one campaign cell into its mode's row, as the
// experiments package does.
func accumulate(r *experiments.FaultRow, inj uint64, st *core.Stats) {
	r.Injected += inj
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

// frontierRows rebuilds experiments.Frontier's table rows from one pass
// over nProfiles profiles.
func frontierRows(nProfiles int, jobs []runner.Job, outs []runner.Outcome) ([]experiments.FrontierRow, error) {
	nGrid := nProfiles * len(frontierModes)
	if len(outs) < nGrid {
		return nil, fmt.Errorf("frontier pass has %d cells, want at least %d", len(outs), nGrid)
	}
	agg := map[string]*experiments.FaultRow{}
	for i := nGrid; i < len(outs); i++ {
		cfg := jobs[i].Config
		mode := string(cfg.Mode)
		row, ok := agg[mode]
		if !ok {
			row = &experiments.FaultRow{Mode: cfg.Mode}
			agg[mode] = row
		}
		accumulate(row, injected(jobs[i]), &outs[i].Result.Core)
	}
	for _, row := range agg {
		row.Vanished = int64(row.Injected) - int64(row.Detected) - int64(row.Masked) - int64(row.Silent)
	}
	ipc := func(c int) float64 {
		xs := make([]float64, nProfiles)
		for b := range xs {
			xs[b] = outs[b*len(frontierModes)+c].Result.IPC
		}
		return stats.Mean(xs)
	}
	baseIPC := 0.0
	for c := range frontierModes {
		if !jobs[c].Config.Mode.Caps().Detects {
			baseIPC = ipc(c)
		}
	}
	var rows []experiments.FrontierRow
	for c, name := range frontierModes {
		cfg := jobs[c].Config
		row := experiments.FrontierRow{Mode: cfg.Mode, Streams: cfg.Streams(), IPC: ipc(c)}
		row.LossPct = stats.PctLoss(baseIPC, row.IPC)
		if cfg.Mode.Caps().Detects {
			a, ok := agg[name]
			if !ok {
				return nil, fmt.Errorf("no campaign for detecting mode %s", name)
			}
			row.Inj = *a
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// coveragePct is Σdetected / Σlive over campaign rows, in percent.
func coveragePct(rows []experiments.FaultRow) float64 {
	var detected, live float64
	for _, r := range rows {
		detected += float64(r.Detected)
		live += float64(r.Injected) - float64(max(r.Vanished, 0))
	}
	return 100 * ratio(detected, live)
}
