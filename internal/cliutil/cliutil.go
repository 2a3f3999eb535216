// Package cliutil centralizes the flag handling shared by the repro
// command-line tools (cmd/sweep, cmd/simserved, cmd/simdie, cmd/irbstat):
// the instruction budget, oracle verification, benchmark selection, the
// parallel-runner width (-j), the grid-flag bundle those compose into,
// and the table output formats backed by internal/stats.
// Each command registers only the flags it needs, so the tools stay small
// while spelling every shared knob the same way.
package cliutil

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Insns registers the -insns instruction-budget flag on fs.
func Insns(fs *flag.FlagSet, def uint64) *uint64 {
	return fs.Uint64("insns", def, "architected instructions per run")
}

// Verify registers the -verify oracle-checking flag on fs.
func Verify(fs *flag.FlagSet) *bool {
	return fs.Bool("verify", false, "verify every run against the functional oracle")
}

// Bench registers the -bench benchmark-selection flag on fs. The value
// is a comma-separated list of profile names; see SplitBenchmarks and
// Profiles for parsing.
func Bench(fs *flag.FlagSet, def, usage string) *string {
	return fs.String("bench", def, usage)
}

// Jobs registers the -j parallelism flag on fs, defaulting to
// runtime.GOMAXPROCS(0). A value of 1 runs simulations serially, exactly
// reproducing the pre-parallel sweep.
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("j", runtime.GOMAXPROCS(0), "parallel simulation jobs (1 = serial)")
}

// SplitBenchmarks parses a comma-separated -bench value into names,
// trimming blanks; an empty value yields nil (meaning "all").
func SplitBenchmarks(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Profiles resolves a comma-separated -bench value to workload profiles,
// defaulting to the full SPEC2000 suite when the value is empty.
func Profiles(bench string) ([]workload.Profile, error) {
	names := SplitBenchmarks(bench)
	if len(names) == 0 {
		return workload.SPEC2000(), nil
	}
	out := make([]workload.Profile, 0, len(names))
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (want one of the SPEC2000 profile names)", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// Mode registers the -mode redundancy-mode flag on fs. The usage text
// lists the registered modes, so a newly registered mode documents
// itself; resolve the parsed value with ResolveMode.
func Mode(fs *flag.FlagSet, def string) *string {
	return fs.String("mode", def,
		"redundancy mode: "+strings.Join(core.ModeNames(), ", "))
}

// ResolveMode resolves a -mode value through the core mode registry,
// with an error that lists the valid names.
func ResolveMode(name string) (core.ModeInfo, error) {
	mi, ok := core.ModeByName(name)
	if !ok {
		return core.ModeInfo{}, fmt.Errorf("unknown mode %q (want one of: %s)",
			name, strings.Join(core.ModeNames(), ", "))
	}
	return mi, nil
}

// ExperimentFlags bundles cmd/sweep's grid-run flags: one registration,
// one spelling and one Options translation for the five flags.
type ExperimentFlags struct {
	Insns       *uint64
	Bench       *string
	Verify      *bool
	Jobs        *int
	CellTimeout *time.Duration
}

// RegisterExperimentFlags registers the shared grid flags on fs. By
// default a grid runs sim.DefaultInsns instructions on all 12 benchmarks.
func RegisterExperimentFlags(fs *flag.FlagSet) *ExperimentFlags {
	return &ExperimentFlags{
		Insns:  Insns(fs, sim.DefaultInsns),
		Bench:  Bench(fs, "", "comma-separated benchmark subset (default all 12)"),
		Verify: Verify(fs),
		Jobs:   Jobs(fs),
		CellTimeout: fs.Duration("cell-timeout", 0,
			"per-cell wall-clock bound with one retry (0 = unbounded); a timed-out cell fails alone"),
	}
}

// Options translates the parsed flags into experiment options. Callers add
// the knobs that stay command-specific (Context, Progress).
func (f *ExperimentFlags) Options() experiments.Options {
	return experiments.Options{
		Insns:       *f.Insns,
		Verify:      *f.Verify,
		Benchmarks:  SplitBenchmarks(*f.Bench),
		Parallelism: *f.Jobs,
		CellTimeout: *f.CellTimeout,
	}
}

// Format registers the -format output-format flag on fs.
func Format(fs *flag.FlagSet) *string {
	return fs.String("format", "table", "output format: table, csv or json")
}

// Render renders t according to a -format value.
func Render(t *stats.Table, format string) (string, error) {
	switch format {
	case "", "table":
		return t.String(), nil
	case "csv":
		return t.CSV(), nil
	case "json":
		return t.JSON(), nil
	}
	return "", fmt.Errorf("unknown format %q (want table, csv or json)", format)
}
