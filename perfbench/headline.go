package main

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// headlineInsns is the per-cell instruction budget of the headline grid:
// the size at which the headline sweep's 08-06 -> 08-08 slowdown was
// measured (serial `sweep -exp headline -insns 50000`). The sweep
// default, 300k, takes about 16 s per pass on two workers, too long for
// several passes in one run.
const headlineInsns = 50_000

// specProfiles are the 12 SPEC2000-like workload profiles, pinned by name.
var specProfiles = []string{
	"gzip", "vpr", "gcc", "mcf", "parser", "bzip2",
	"twolf", "vortex", "art", "equake", "ammp", "mesa",
}

// headlineConfig is one column of the headline grid: a redundancy mode,
// pinned by name, at the paper's baseline machine.
type headlineConfig struct {
	name, mode string
	doubleALUs bool
}

// headlineConfigs are the paper's headline machines: the SIE bound, the
// DIE floor, the proposed DIE-IRB, and DIE with doubled ALUs.
var headlineConfigs = []headlineConfig{
	{"SIE", "SIE", false},
	{"DIE", "DIE", false},
	{"DIE-IRB", "DIE-IRB", false},
	{"DIE-2xALU", "DIE", true},
}

func init() { workloads["headline"] = runHeadline }

func runHeadline(e *env) (*outcome, error) {
	gw := headlineWorkload(headlineInsns)
	if e.trace {
		return traceGridWorkload(gw, e)
	}
	return runGridWorkload(gw, e)
}

// profilesByName resolves pinned profile names.
func profilesByName(names []string) ([]workload.Profile, error) {
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload profile %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// headlineWorkload is the fault-free headline grid, bench-major like
// experiments.Headline, with the oracle off (the sweep default).
func headlineWorkload(insns uint64) gridWorkload {
	return gridWorkload{
		build: func(seed uint64) ([][]runner.Job, error) {
			profiles, err := profilesByName(specProfiles)
			if err != nil {
				return nil, err
			}
			var jobs []runner.Job
			for _, p := range profiles {
				for _, hc := range headlineConfigs {
					cfg, err := modeBase(hc.mode)
					if err != nil {
						return nil, err
					}
					if hc.doubleALUs {
						cfg = cfg.WithDoubledALUs()
					}
					jobs = append(jobs, runner.Job{Name: hc.name, Config: cfg, Profile: p,
						Opts: sim.Options{Insns: insns, Seed: seed}})
				}
			}
			return [][]runner.Job{jobs}, nil
		},
		model: func(jobs []runner.Job, outs []runner.Outcome) []reportLine {
			s := summarizeHeadline(outs)
			return []reportLine{
				{"alu_loss_recovered_pct", s.ALUBandwidth, "%", "paper: nearly 50"},
				{"loss_recovered_pct", s.OverallGain, "%", "paper: 23"},
			}
		},
	}
}

// headlineSummary mirrors experiments.HeadlineSummary.
type headlineSummary struct {
	AvgLossDIE, AvgLossIRB, AvgLoss2xALU float64
	OverallGain, ALUBandwidth            float64
}

// summarizeHeadline aggregates one headline pass exactly as
// experiments.Headline does: mean per-benchmark IPC losses against SIE,
// then the share of the DIE loss (overall, and down to DIE-2xALU) that
// DIE-IRB recovers.
func summarizeHeadline(outs []runner.Outcome) headlineSummary {
	var s headlineSummary
	cols := len(headlineConfigs)
	n := float64(len(outs) / cols)
	for b := 0; b+cols <= len(outs); b += cols {
		sie, die, irb, alu2 := outs[b].Result.IPC, outs[b+1].Result.IPC, outs[b+2].Result.IPC, outs[b+3].Result.IPC
		s.AvgLossDIE += stats.PctLoss(sie, die) / n
		s.AvgLossIRB += stats.PctLoss(sie, irb) / n
		s.AvgLoss2xALU += stats.PctLoss(sie, alu2) / n
	}
	s.OverallGain = stats.Recovered(s.AvgLossDIE, 0, s.AvgLossIRB)
	s.ALUBandwidth = stats.Recovered(s.AvgLossDIE, s.AvgLoss2xALU, s.AvgLossIRB)
	return s
}
