package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/program"
	"repro/internal/workload"
)

// TestTraceReplayMatchesDirect is the replay determinism gate: for every
// headline configuration, a run fed a captured trace must produce results
// identical — field for field — to a run that generates and interprets the
// program itself. Verify stays on so the commit-time oracle cross-checks
// every retired instruction along the way.
func TestTraceReplayMatchesDirect(t *testing.T) {
	p := gzipProfile(t)
	opts := Options{Insns: 20_000, Verify: true}
	tr, err := CaptureTrace(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range HeadlineConfigs() {
		direct, err := Run(nc.Name, nc.Cfg, p, opts)
		if err != nil {
			t.Fatalf("%s direct: %v", nc.Name, err)
		}
		withTrace := opts
		withTrace.Trace = tr
		replay, err := Run(nc.Name, nc.Cfg, p, withTrace)
		if err != nil {
			t.Fatalf("%s replay: %v", nc.Name, err)
		}
		if !reflect.DeepEqual(direct, replay) {
			t.Errorf("%s: trace-replay result differs from direct run:\ndirect %+v\nreplay %+v",
				nc.Name, direct, replay)
		}
	}
}

// TestTraceReplayWithFastForward exercises the cursor oracle's skip path
// and the replay front's fast-forward together.
func TestTraceReplayWithFastForward(t *testing.T) {
	p := gzipProfile(t)
	opts := Options{Insns: 15_000, FastForward: 25_000, Verify: true}
	tr, err := CaptureTrace(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := opts.FastForward + opts.Insns; !tr.Covers(want) {
		t.Fatalf("captured trace too short: %d < %d", tr.Len(), want)
	}
	direct, err := Run("DIE-IRB", HeadlineConfigs()[2].Cfg, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = tr
	replay, err := Run("DIE-IRB", HeadlineConfigs()[2].Cfg, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replay) {
		t.Errorf("fast-forwarded trace-replay differs from direct run")
	}
}

// TestTraceShortCoverageFallsBack runs with a trace that covers only part
// of the measured window: the front and the machine oracle must fall back
// to interpretation past its end and still verify cleanly.
func TestTraceShortCoverageFallsBack(t *testing.T) {
	p := gzipProfile(t)
	prog, err := ProgramFor(p, Options{Insns: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	short, err := fsim.Capture(prog, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Insns: 20_000, Verify: true, Trace: short}
	if short.Covers(opts.Insns) {
		t.Fatalf("trace unexpectedly covers the full budget (len %d)", short.Len())
	}
	replay, err := Run("DIE", HeadlineConfigs()[1].Cfg, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run("DIE", HeadlineConfigs()[1].Cfg, p, Options{Insns: 20_000, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replay) {
		t.Errorf("partial-trace run differs from direct run")
	}
}

// TestTraceProfileMismatchRejected: handing a run a trace captured from a
// different benchmark must fail fast, not silently simulate the wrong
// program.
func TestTraceProfileMismatchRejected(t *testing.T) {
	gzip := gzipProfile(t)
	tr, err := CaptureTrace(gzip, Options{Insns: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	other, ok := workload.ByName("mesa")
	if !ok {
		t.Fatal("mesa profile missing")
	}
	_, err = Run("SIE", HeadlineConfigs()[0].Cfg, other, Options{Insns: 5_000, Trace: tr})
	if err == nil {
		t.Fatal("run accepted a trace captured from a different profile")
	}
}

// programChecksum hashes every architecturally meaningful part of a
// program: the code stream, the data image, and the entry point.
func programChecksum(t *testing.T, prog *program.Program) uint64 {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", prog.Name, prog.Entry)
	for _, in := range prog.Code {
		fmt.Fprintf(h, "%+v;", in)
	}
	for i, v := range prog.Data {
		fmt.Fprintf(h, "%d=%d;", prog.DataBase+8*uint64(i), v)
	}
	return h.Sum64()
}

// TestSharedTraceProgramNotMutated guards the memoization contract: the
// one generated program fanned out (via its trace) to every configuration
// cell must come back bit-identical — no run may write to the shared
// workload.
func TestSharedTraceProgramNotMutated(t *testing.T) {
	p := gzipProfile(t)
	opts := Options{Insns: 10_000, Verify: true}
	tr, err := CaptureTrace(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := programChecksum(t, tr.Prog())
	opts.Trace = tr
	for _, nc := range HeadlineConfigs() {
		if _, err := Run(nc.Name, nc.Cfg, p, opts); err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
	}
	if after := programChecksum(t, tr.Prog()); after != before {
		t.Errorf("shared program mutated across runs: checksum %#x != %#x", after, before)
	}
}
