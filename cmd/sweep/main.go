// Command sweep regenerates the paper's figures and tables (and this
// reproduction's ablations) over the 12 SPEC2000-like workloads. The
// grid cells of each experiment run in parallel across -j workers
// (default GOMAXPROCS); -j 1 reproduces the old serial sweep exactly,
// and Ctrl-C cancels a sweep mid-grid.
//
// Usage:
//
//	sweep -exp all                     # every experiment
//	sweep -exp fig2 -j 8               # one experiment, eight workers
//	sweep -exp headline -insns 500000  # bigger instruction budget
//	sweep -exp irbhit -bench gzip,mesa # subset of benchmarks
//	sweep -exp fig2 -format csv        # csv or json instead of a table
//	sweep -exp all -progress           # live cells-done/ETA on stderr
//	sweep -exp all -cpuprofile cpu.pprof   # profile the sweep
//	sweep -exp recovery -cell-timeout 5m   # bound each cell's wall-clock
//
// Experiments: config, fig2, headline, irbhit, irbsize, conflict,
// irbports, faults, recovery, frontier, ablation-dup, ablation-fwd,
// scheduler, cluster, prior24, reuse-sources, reuse-prediction, trb,
// trb-prediction, all.
//
// The frontier experiment compares every registered redundancy mode
// (SIE, DIE, DIE-IRB, REPLAY, TMR, DIE-TRB) on one fault-free-IPC vs
// detection-coverage vs MTTR table. The trb experiment ablates DIE vs
// DIE-IRB vs DIE-TRB and injects faults into the trace-buffered
// machine; trb-prediction cross-validates the static trace-reuse
// forecast against the measured trace-served share.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see package doc)")
	gridOpts := experimentFlags(flag.CommandLine)
	format := cliutil.Format(flag.CommandLine)
	progress := flag.Bool("progress", false, "report live per-cell progress on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a post-sweep heap profile to this file")
	flag.Parse()

	// Ctrl-C cancels the sweep: in-flight simulations stop within a
	// cycle and the completed cells' failures are still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := gridOpts()
	opts.Context = ctx
	if *progress {
		opts.Progress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "\r%4d/%d cells  %-40s eta %-10s",
				p.Done, p.Total, p.Bench+"/"+p.Config, p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(*exp, opts, *format); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live post-sweep heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}
}

// experimentFlags registers the grid flags on fs: by default a grid runs
// sim.DefaultInsns instructions on all 12 benchmarks. The returned
// function translates the parsed flags into experiment options; main adds
// the Context and Progress knobs.
func experimentFlags(fs *flag.FlagSet) func() experiments.Options {
	insns := cliutil.Insns(fs, sim.DefaultInsns)
	bench := cliutil.Bench(fs, "", "comma-separated benchmark subset (default all 12)")
	verify := cliutil.Verify(fs)
	jobs := cliutil.Jobs(fs)
	cellTimeout := fs.Duration("cell-timeout", 0,
		"per-cell wall-clock bound with one retry (0 = unbounded); a timed-out cell fails alone")
	return func() experiments.Options {
		return experiments.Options{
			Insns:       *insns,
			Verify:      *verify,
			Benchmarks:  cliutil.SplitBenchmarks(*bench),
			Parallelism: *jobs,
			CellTimeout: *cellTimeout,
		}
	}
}

func run(exp string, opts experiments.Options, format string) error {
	// Validate the format before burning simulation time on the grid.
	if _, err := cliutil.Render(stats.NewTable(""), format); err != nil {
		return err
	}
	for _, r := range experiments.Registry() {
		if exp != "all" && exp != r.Name {
			continue
		}
		t, err := r.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		out, err := cliutil.Render(t, format)
		if err != nil {
			return err
		}
		// Machine-readable formats keep stdout clean (so `-format json
		// > x.json` is a valid document); the banner moves to stderr.
		if format == "table" || format == "" {
			fmt.Printf("=== %s ===\n%s\n", r.Name, out)
		} else {
			fmt.Fprintf(os.Stderr, "=== %s ===\n", r.Name)
			fmt.Printf("%s\n", out)
		}
		if exp == r.Name {
			return nil
		}
	}
	if exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
