package experiments

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FrontierRow is one redundancy mode's position on the coverage frontier:
// its fault-free performance next to the aggregate outcome of its fault
// campaigns. Together the rows answer the question the mode registry
// exists to ask — what does each detection/correction strategy pay in
// IPC, and what does it buy in coverage and repair latency?
type FrontierRow struct {
	Mode    core.Mode
	Streams int     // execution copies per architected instruction
	IPC     float64 // suite-mean fault-free IPC (oracle-verified)
	LossPct float64 // % IPC loss vs the single-stream baseline

	// Inj aggregates the mode's injection campaigns (zero-valued for the
	// non-detecting baseline, which runs no campaign).
	Inj FaultRow
}

// Frontier runs the six-way redundancy comparison the mode registry was
// built for: every registered detecting mode plus the single-stream
// baseline on one table of fault-free IPC, IPC loss, detection coverage
// and MTTR. One runner call holds the oracle-verified fault-free grid and
// the registry-derived injection matrix (rate 3e-4 per site, the same
// operating point as the Faults experiment), and each mode's campaigns
// aggregate into a single row. Verification is forced on for every cell,
// so a silent corruption in any mode fails the run rather than skewing a
// number.
func Frontier(opts Options) ([]FrontierRow, *stats.Table, error) {
	opts.Verify = true
	cfgs := sim.FrontierConfigs()
	g, camps, _, err := runCampaigns(cfgs, campaigns(faultRate), opts)
	if err != nil {
		return nil, nil, err
	}

	// The baseline column for the loss figures is the grid's (unique)
	// non-detecting machine.
	baseIPC := 0.0
	for c, name := range g.Configs {
		if !core.Mode(name).Caps().Detects {
			baseIPC = stats.Mean(g.ConfigIPCs(c))
		}
	}

	t := stats.NewTable("Redundancy frontier: fault-free IPC vs detection coverage vs MTTR",
		"mode", "streams", "ipc", "loss_pct", "injected", "detected",
		"corrected", "silent", "coverage", "mttr")
	var rows []FrontierRow
	for c, name := range g.Configs {
		mode := core.Mode(name)
		caps := mode.Caps()
		row := FrontierRow{
			Mode:    mode,
			Streams: cfgs[c].Cfg.Streams(),
			IPC:     stats.Mean(g.ConfigIPCs(c)),
		}
		row.LossPct = stats.PctLoss(baseIPC, row.IPC)
		coverage, mttr := 0.0, 0.0
		if caps.Detects {
			row.Inj.Mode = mode
			for _, cr := range camps {
				if cr.Mode == mode {
					row.Inj.add(cr)
				}
			}
			coverage, mttr = row.Inj.Coverage(), row.Inj.MTTR()
		}
		rows = append(rows, row)
		t.AddRow(string(mode), row.Streams, row.IPC, row.LossPct,
			row.Inj.Injected, row.Inj.Detected, row.Inj.Corrected,
			row.Inj.Silent, coverage, mttr)
	}
	return rows, t, nil
}
