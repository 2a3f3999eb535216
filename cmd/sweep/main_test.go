package main

import (
	"flag"
	"reflect"
	"testing"

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
	opts := gridOpts()
	if opts.Insns != 777 || !opts.Verify || opts.Parallelism != 3 {
		t.Fatalf("opts = %+v", opts)
	}
	if opts.CellTimeout.Seconds() != 90 {
		t.Fatalf("cell timeout = %v, want 90s", opts.CellTimeout)
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
	opts := gridOpts()
	if opts.Insns != sim.DefaultInsns || opts.Verify || opts.CellTimeout != 0 {
		t.Fatalf("opts = %+v", opts)
	}
	if opts.Benchmarks != nil {
		t.Fatalf("benchmarks = %v, want no filter", opts.Benchmarks)
	}
}
