//go:build !perfbench_legacy

package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/sim"
)

const (
	campaignInsns = 50_000
	campaignMode  = "DIE-IRB"
	// Per profile, quiet lanes run at a rate that essentially never
	// fires within the budget, so they converge with the leader; loud
	// lanes fire within the first few thousand instructions, diverge,
	// and re-run scalar. Fixing how many lanes diverge keeps the
	// workload's batching regime the same for every seed.
	campaignQuietLanes = 28
	campaignQuietRate  = 1e-9
	campaignLoudLanes  = 3
	campaignLoudRate   = 1e-4
)

// campaignProfiles are the campaign's workloads, pinned by name.
var campaignProfiles = []string{"gzip", "bzip2", "mesa"}

func init() { workloads["campaign"] = runCampaign }

func runCampaign(e *env) (*outcome, error) {
	gw := campaignWorkload(campaignProfiles, campaignInsns, campaignQuietLanes, campaignLoudLanes)
	if e.trace {
		return traceGridWorkload(gw, e)
	}
	return runGridWorkload(gw, e)
}

// campaignWorkload is a fault campaign per profile: one verified
// fault-free DIE-IRB baseline plus quiet+loud verified FU-strike cells,
// one injector seed each, run through the runner's defaults, so the
// batch planner puts each profile's cells on one lockstep leader and only
// the lanes whose injector fires re-run scalar.
func campaignWorkload(profileNames []string, insns uint64, quiet, loud int) gridWorkload {
	return gridWorkload{
		build: func(seed uint64) ([][]runner.Job, error) {
			profiles, err := profilesByName(profileNames)
			if err != nil {
				return nil, err
			}
			cfg, err := modeBase(campaignMode)
			if err != nil {
				return nil, err
			}
			opts := sim.Options{Insns: insns, Seed: seed, Verify: true}
			var jobs []runner.Job
			for _, p := range profiles {
				jobs = append(jobs, runner.Job{Name: campaignMode, Config: cfg, Profile: p, Opts: opts})
				for s := 1; s <= quiet+loud; s++ {
					rate := campaignQuietRate
					if s > quiet {
						rate = campaignLoudRate
					}
					inj, err := fault.New(fault.Config{Site: fault.FU, Rate: rate,
						Seed: seed<<16 ^ p.Seed<<8 ^ uint64(s)})
					if err != nil {
						return nil, err
					}
					o := opts
					o.Injector = inj
					jobs = append(jobs, runner.Job{Name: fmt.Sprintf("%s/fu-s%d", campaignMode, s), Config: cfg, Profile: p, Opts: o})
				}
			}
			return [][]runner.Job{jobs}, nil
		},
		check:    checkNoSilent,
		scaleRun: true,
		model: func(jobs []runner.Job, outs []runner.Outcome) []reportLine {
			var row experiments.FaultRow
			fired := 0
			for i, j := range jobs {
				if n := injected(j); n > 0 {
					fired++
					accumulate(&row, n, &outs[i].Result.Core)
				}
			}
			row.Vanished = int64(row.Injected) - int64(row.Detected) - int64(row.Masked) - int64(row.Silent)
			return []reportLine{
				{"coverage_pct", coveragePct([]experiments.FaultRow{row}), "%", fmt.Sprintf("%d of %d injector cells fired", fired, len(jobs)-len(profileNames))},
			}
		},
	}
}
