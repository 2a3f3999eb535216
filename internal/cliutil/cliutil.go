// Package cliutil centralizes the flag handling shared by the repro
// command-line tools (cmd/sweep, cmd/simserved, cmd/simdie, cmd/irbstat):
// the instruction budget, oracle verification, benchmark selection, the
// parallel-runner width (-j), the redundancy mode, and the table output
// formats backed by internal/stats.
// Each command registers only the flags it needs, so the tools stay small
// while spelling every shared knob the same way.
package cliutil

import (
	"flag"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
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
// is a comma-separated list of profile names; SplitBenchmarks parses it
// into the names workload.ByNames resolves.
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
