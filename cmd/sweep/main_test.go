package main

import (
	"context"
	"flag"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

func TestExperimentFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	gridOpts := experimentFlags(fs)
	err := fs.Parse([]string{
		"-insns", "777", "-bench", "gzip, mesa", "-verify",
		"-j", "3", "-cell-timeout", "90s",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, ropts := gridOpts()
	if opts.Insns != 777 || !opts.Verify || ropts.Parallelism != 3 {
		t.Fatalf("opts = %+v, runner opts = %+v", opts, ropts)
	}
	if ropts.CellTimeout.Seconds() != 90 {
		t.Fatalf("cell timeout = %v, want 90s", ropts.CellTimeout)
	}
	if !reflect.DeepEqual(opts.Benchmarks, []string{"gzip", "mesa"}) {
		t.Fatalf("benchmarks = %v", opts.Benchmarks)
	}
}

func TestExperimentFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	gridOpts := experimentFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts, ropts := gridOpts()
	if opts.Insns != sim.DefaultInsns || opts.Verify || ropts.CellTimeout != 0 {
		t.Fatalf("opts = %+v, runner opts = %+v", opts, ropts)
	}
	if opts.Benchmarks != nil {
		t.Fatalf("benchmarks = %v, want no filter", opts.Benchmarks)
	}
}

// TestSharedCacheTables: every registered experiment, run in registry
// order through one sweepExec and so one result cache, prints the table
// it prints when run alone with runner defaults, and later experiments
// are served cells that earlier ones ran.
func TestSharedCacheTables(t *testing.T) {
	alone := experiments.Options{Insns: 3000, Benchmarks: []string{"gzip", "mcf"}}
	shared := alone
	exec := sweepExec(context.Background(), runner.Options{Parallelism: 2})
	hits := 0
	shared.Exec = func(jobs []runner.Job) ([]runner.Outcome, error) {
		outs, err := exec(jobs)
		for _, o := range outs {
			if o.CacheHit {
				hits++
			}
		}
		return outs, err
	}
	for _, e := range experiments.Registry() {
		want, err := e.Run(alone)
		if err != nil {
			t.Fatalf("%s alone: %v", e.Name, err)
		}
		got, err := e.Run(shared)
		if err != nil {
			t.Fatalf("%s through the shared cache: %v", e.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s through the shared cache differs from its table alone\n got:\n%s\nwant:\n%s",
				e.Name, got, want)
		}
	}
	if hits == 0 {
		t.Error("no experiment was served a cell from the shared cache")
	}
}
