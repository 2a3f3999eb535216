// Command irblint statically analyzes the workload programs without
// running a cycle of simulation: it builds the CFG, runs the
// well-formedness diagnostics, and reports the static IRB reuse and port
// pressure prediction for each program. It lints exactly what the
// simulator would execute — generated profiles go through sim.ProgramFor,
// so the sizing and seeding match a real run — plus the built-in kernels.
//
// The exit status is 0 when every program is clean and 1 when any
// diagnostic fires, so CI can gate on it. The -format json output is
// machine-readable for artifact upload.
//
// Usage:
//
//	irblint                       # all benchmarks + kernels
//	irblint -bench gcc,parser     # benchmark subset, no kernels
//	irblint -format json          # machine-readable report
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	insns := cliutil.Insns(flag.CommandLine, sim.DefaultInsns)
	bench := cliutil.Bench(flag.CommandLine, "", "comma-separated benchmark subset (default: all + kernels)")
	kernels := flag.Bool("kernels", true, "also lint the built-in kernels")
	format := cliutil.Format(flag.CommandLine)
	flag.Parse()

	clean, err := run(os.Stdout, *insns, *bench, *kernels, *format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "irblint:", err)
		os.Exit(2)
	}
	if !clean {
		os.Exit(1)
	}
}

// run lints every selected program, writes the report to w, and reports
// whether all programs were diagnostic-free.
func run(w *os.File, insns uint64, bench string, kernels bool, format string) (bool, error) {
	progs, err := targets(insns, bench, kernels)
	if err != nil {
		return false, err
	}

	sum := stats.NewTable("Static analysis (irblint)",
		"program", "instrs", "blocks", "loops", "diags", "pred-reuse", "hot-instrs", "conflict", "locality")
	diags := stats.NewTable("Diagnostics", "program", "kind", "pc", "detail")
	nDiags := 0
	for _, p := range progs {
		r := analysis.Analyze(p)
		sum.AddRow(p.Name, len(p.Code), len(r.CFG.Blocks), len(r.CFG.Loops),
			len(r.Diags), r.Prediction.ReuseRate, r.Prediction.HotInstrs,
			r.Prediction.ConflictRatio, r.Prediction.ValueLocality)
		for i := range r.Diags {
			d := &r.Diags[i]
			diags.AddRow(p.Name, string(d.Kind), d.PC, d.Detail)
			nDiags++
		}
	}

	out, err := cliutil.Render(sum, format)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, out)
	if nDiags > 0 || format == "json" || format == "csv" {
		dout, err := cliutil.Render(diags, format)
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, dout)
	}
	if format == "" || format == "table" {
		fmt.Fprintf(w, "%d programs, %d diagnostics\n", len(progs), nDiags)
	}
	return nDiags == 0, nil
}

// targets resolves the programs to lint: the selected benchmark profiles
// generated exactly as a simulation run would, plus the built-in kernels.
func targets(insns uint64, bench string, kernels bool) ([]*program.Program, error) {
	profiles, err := workload.ByNames(cliutil.SplitBenchmarks(bench))
	if err != nil {
		return nil, err
	}
	var progs []*program.Program
	for _, p := range profiles {
		prog, err := sim.ProgramFor(p, sim.Options{Insns: insns})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.Name, err)
		}
		progs = append(progs, prog)
	}
	// An explicit -bench selection lints only those benchmarks.
	if kernels && strings.TrimSpace(bench) == "" {
		progs = append(progs, workload.Kernels()...)
	}
	return progs, nil
}
