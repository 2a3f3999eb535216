package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TRBRow is one benchmark's trace-reuse ablation outcome: the IPC ladder
// from plain DIE through DIE-IRB to DIE-TRB, with the reuse composition
// of the trace-buffered machine.
type TRBRow struct {
	Bench      string
	DIE        float64 // plain dual-execution IPC
	DIEIRB     float64 // per-instruction reuse IPC
	DIETRB     float64 // trace-level reuse IPC
	ReuseIRB   float64 // DIE-IRB duplicate reuse rate
	ReuseTRB   float64 // DIE-TRB combined reuse rate (IRB + trace hits)
	TraceShare float64 // fraction of committed insns whose dup a window hit served
	BlockHits  uint64  // TRB window lookups that hit
}

// TRBAblation runs the trace-reuse ablation: DIE vs DIE-IRB vs DIE-TRB
// on one fault-free oracle-verified grid, and DIE-TRB under single-bit
// injection at all four sites (rate 3e-4 — the Faults experiment's
// operating point), all in one runner call. Verification is forced on for
// every run: a silent corruption in the trace path fails the run rather
// than skewing a number. The returned table carries the per-benchmark
// IPC ladder and reuse composition, an AVERAGE row, and one fault@site
// row per campaign for the silent-corruption gate in CI.
func TRBAblation(opts Options) ([]TRBRow, []FaultRow, *stats.Table, error) {
	opts.Verify = true
	g, frows, _, err := runCampaigns(modeConfigs(core.DIE, core.DIEIRB, core.DIETRB),
		campaigns(faultRate, core.DIETRB), opts)
	if err != nil {
		return nil, nil, nil, err
	}

	t := stats.NewTable("Trace reuse ablation: DIE vs DIE-IRB vs DIE-TRB (verified)",
		"bench", "die_ipc", "irb_ipc", "trb_ipc", "reuse_rate", "trace_share", "block_hits")
	rows := make([]TRBRow, 0, len(g.Benchmarks))
	var sumIRB, sumTRB, sumReuse, sumShare float64
	for b, bench := range g.Benchmarks {
		rIRB, rTRB := g.Results[b][1], g.Results[b][2]
		row := TRBRow{
			Bench:      bench,
			DIE:        g.IPC(b, 0),
			DIEIRB:     rIRB.IPC,
			DIETRB:     rTRB.IPC,
			ReuseIRB:   rIRB.ReuseRate(),
			ReuseTRB:   rTRB.ReuseRate(),
			TraceShare: rTRB.TraceReuseRate(),
		}
		if rTRB.TRB != nil {
			row.BlockHits = rTRB.TRB.Hits
		}
		rows = append(rows, row)
		sumIRB += row.DIEIRB
		sumTRB += row.DIETRB
		sumReuse += row.ReuseTRB
		sumShare += row.TraceShare
		t.AddRow(bench, row.DIE, row.DIEIRB, row.DIETRB,
			row.ReuseTRB, row.TraceShare, row.BlockHits)
	}
	n := float64(len(rows))
	if n > 0 {
		t.AddRow("AVERAGE", "", sumIRB/n, sumTRB/n, sumReuse/n, sumShare/n, "")
	}

	for _, frow := range frows {
		t.AddRow("fault@"+string(frow.Site), frow.Injected, frow.Detected,
			frow.Masked, frow.Silent, frow.Coverage(), frow.Scrubs)
	}
	return rows, frows, t, nil
}

// TracePredictionRow pairs the static trace-reuse forecast for one
// benchmark with the trace-served instruction share the timing core
// measured on the base DIE-TRB machine.
type TracePredictionRow struct {
	Bench     string
	Predicted float64 // analysis.Prediction.TraceReuseRate on the exact program run
	Measured  float64 // sim.Result.TraceReuseRate on the base DIE-TRB machine
	Windows   int     // static memoizable windows found
	BlockHits uint64  // measured TRB window hits
}

// TraceReusePrediction cross-validates the static trace-reuse predictor
// (internal/analysis, TraceBlocks-driven) against the measured
// trace-served share of the base DIE-TRB machine, exactly as
// ReusePrediction does for the per-instruction predictor: each
// benchmark's program is analyzed as generated for its run, then
// simulated, and the Spearman rank correlation of the two columns is the
// acceptance figure — the predictor orders programs by trace-reuse
// potential, it does not promise absolute rates.
func TraceReusePrediction(opts Options) ([]TracePredictionRow, float64, *stats.Table, error) {
	profiles, err := workload.ByNames(opts.Benchmarks)
	if err != nil {
		return nil, 0, nil, err
	}
	g, err := runGridProfiles(modeConfigs(core.DIETRB), profiles, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	t := stats.NewTable("Static trace-reuse prediction vs measured (base DIE-TRB)",
		"bench", "predicted", "measured", "windows", "block_hits")
	rows := make([]TracePredictionRow, 0, len(profiles))
	var preds, meas []float64
	for b, p := range profiles {
		prog, err := sim.ProgramFor(p, opts.simOpts())
		if err != nil {
			return nil, 0, nil, err
		}
		pred := analysis.Analyze(prog).Prediction
		row := TracePredictionRow{
			Bench:     p.Name,
			Predicted: pred.TraceReuseRate,
			Measured:  g.Results[b][0].TraceReuseRate(),
			Windows:   pred.TraceWindows,
		}
		if tb := g.Results[b][0].TRB; tb != nil {
			row.BlockHits = tb.Hits
		}
		rows = append(rows, row)
		preds = append(preds, row.Predicted)
		meas = append(meas, row.Measured)
		t.AddRow(row.Bench, fmt.Sprintf("%.4f", row.Predicted),
			fmt.Sprintf("%.4f", row.Measured), row.Windows, row.BlockHits)
	}
	rho := stats.Spearman(preds, meas)
	t.AddRow("SPEARMAN", "", "", "", rho)
	return rows, rho, t, nil
}
