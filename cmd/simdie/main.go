// Command simdie runs one or more benchmarks on one machine
// configuration and prints the full statistics report per benchmark —
// the equivalent of a sim-outorder invocation on the paper's platform.
// A comma-separated -bench list (or -bench all for the whole suite)
// fans the runs out across -j parallel workers; reports print in the
// order the benchmarks were named regardless of completion order.
//
// Usage:
//
//	simdie -bench gzip -mode DIE-IRB
//	simdie -bench gzip,gcc,mesa -mode DIE -j 4
//	simdie -bench all -mode DIE-IRB
//	simdie -bench art -mode DIE -2xruu -insns 1000000
//	simdie -bench mesa -mode SIE -verify
//	simdie -bench bzip2 -mode REPLAY -replay-epoch 1024
//	simdie -bench bzip2 -mode TMR -vote-width 5
//	simdie -bench bzip2 -mode DIE-TRB -trb-entries 512
//	simdie -bench bzip2 -dump | head   # disassemble the workload
//
// The -mode value resolves through the core mode registry (see
// DESIGN.md §10); a newly registered mode is accepted with no change
// here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := cliutil.Bench(flag.CommandLine, "gzip",
		"comma-separated benchmark names, or \"all\" for the SPEC2000 suite")
	insns := cliutil.Insns(flag.CommandLine, sim.DefaultInsns)
	verify := cliutil.Verify(flag.CommandLine)
	jobs := cliutil.Jobs(flag.CommandLine)
	mode := cliutil.Mode(flag.CommandLine, "DIE-IRB")
	x2alu := flag.Bool("2xalu", false, "double all functional units")
	x2ruu := flag.Bool("2xruu", false, "double RUU and LSQ capacity")
	x2width := flag.Bool("2xwidths", false, "double all pipeline widths")
	irbEntries := flag.Int("irb-entries", 1024, "IRB entries (DIE-IRB/SIE-IRB)")
	irbAssoc := flag.Int("irb-assoc", 1, "IRB associativity")
	irbVictim := flag.Int("irb-victim", 0, "IRB victim buffer entries")
	replayEpoch := flag.Uint64("replay-epoch", 0,
		"REPLAY: committed instructions per replay epoch (0 = default)")
	voteWidth := flag.Int("vote-width", 0,
		"TMR: copies dispatched per instruction, odd, 3..7 (0 = default)")
	trbEntries := flag.Int("trb-entries", 0,
		"DIE-TRB: trace reuse buffer entries, power of two (0 = default)")
	trbBlockLen := flag.Int("trb-max-block-len", 0,
		"DIE-TRB: max window length in instructions (0 = default)")
	dump := flag.Bool("dump", false, "print the workload's disassembly instead of simulating")
	trace := flag.Uint64("trace", 0, "print a pipeline trace for the first N cycles")
	flag.Parse()

	if err := run(*bench, *mode, *insns, *verify, *jobs, *x2alu, *x2ruu, *x2width,
		*irbEntries, *irbAssoc, *irbVictim, *replayEpoch, *voteWidth,
		*trbEntries, *trbBlockLen, *dump, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "simdie:", err)
		os.Exit(1)
	}
}

func run(bench, mode string, insns uint64, verify bool, jobs int, x2alu, x2ruu, x2width bool,
	irbEntries, irbAssoc, irbVictim int, replayEpoch uint64, voteWidth int,
	trbEntries, trbBlockLen int, dump bool, trace uint64) error {
	if bench == "all" {
		bench = ""
	}
	profiles, err := workload.ByNames(cliutil.SplitBenchmarks(bench))
	if err != nil {
		return err
	}

	// Resolve the mode through the registry: an unknown name fails here
	// with the valid list instead of deep inside config validation.
	mi, err := cliutil.ResolveMode(mode)
	if err != nil {
		return err
	}
	cfg := mi.Base()
	cfg.IRB.Entries = irbEntries
	cfg.IRB.Assoc = irbAssoc
	cfg.IRB.VictimEntries = irbVictim
	if replayEpoch > 0 {
		cfg.ReplayEpoch = replayEpoch
	}
	if voteWidth > 0 {
		cfg.VoteWidth = voteWidth
	}
	if trbEntries > 0 {
		cfg.TRBEntries = trbEntries
	}
	if trbBlockLen > 0 {
		cfg.TRBMaxBlockLen = trbBlockLen
	}
	if x2alu {
		cfg = cfg.WithDoubledALUs()
	}
	if x2ruu {
		cfg = cfg.WithDoubledRUU()
	}
	if x2width {
		cfg = cfg.WithDoubledWidths()
	}

	if dump || trace > 0 {
		if len(profiles) != 1 {
			return fmt.Errorf("-dump and -trace need exactly one benchmark, got %d", len(profiles))
		}
		prog, err := sim.ProgramFor(profiles[0], sim.Options{Insns: insns})
		if err != nil {
			return err
		}
		if dump {
			for pc, in := range prog.Code {
				fmt.Printf("%6d: %s\n", pc, in)
			}
			return nil
		}
		// Tracing needs direct core access; run outside the driver.
		cfg.MaxInsns = insns
		c, err := core.New(cfg, prog)
		if err != nil {
			return err
		}
		c.SetTracer(&core.TextTracer{W: os.Stdout, MaxCycles: trace})
		return c.Run()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	batch := make([]runner.Job, len(profiles))
	for i, p := range profiles {
		batch[i] = runner.Job{
			Name: mode, Config: cfg, Profile: p,
			Opts: sim.Options{Insns: insns, Verify: verify},
		}
	}
	outs, err := runner.Run(ctx, batch, runner.Options{Parallelism: jobs})
	for _, o := range outs {
		if o.Err == nil {
			report(o.Result)
		}
	}
	return err
}

func report(r sim.Result) {
	s := r.Core
	t := stats.NewTable(fmt.Sprintf("%s on %s", r.Bench, r.Mode), "stat", "value")
	t.AddRow("IPC", r.IPC)
	t.AddRow("cycles", s.Cycles)
	t.AddRow("instructions committed", s.Committed)
	t.AddRow("uop copies committed", s.CopiesCommitted)
	t.AddRow("uops dispatched", s.Dispatched)
	t.AddRow("wrong-path uops", s.WrongPath)
	t.AddRow("branch mispredicts", s.Mispredicts)
	t.AddRow("bpred direction accuracy", 1-stats.Ratio(r.Bpred.CondMiss, r.Bpred.CondBranches))
	t.AddRow("loads / stores", fmt.Sprintf("%d / %d", s.Loads, s.Stores))
	t.AddRow("store-to-load forwards", s.LoadForwarded)
	t.AddRow("L1I / L1D / L2 miss rate", fmt.Sprintf("%.4f / %.4f / %.4f",
		r.L1I.MissRate(), r.L1D.MissRate(), r.L2.MissRate()))
	t.AddRow("RUU-full dispatch stalls", s.RUUFullStalls)
	t.AddRow("LSQ-full dispatch stalls", s.LSQFullStalls)
	t.AddRow("ready-but-not-issued (copy-cycles)", s.ReadyNotIssued)
	t.AddRow("issued int-alu/mult/fp-add/fp-mult/mem", fmt.Sprintf("%d/%d/%d/%d/%d",
		s.Issued[0], s.Issued[1], s.Issued[2], s.Issued[3], s.Issued[4]))
	if s.ReplayEpochs > 0 {
		t.AddRow("replay epochs checked", s.ReplayEpochs)
		t.AddRow("replay stall cycles", s.ReplayStallCycles)
	}
	if s.FaultsInjected+s.FaultsDetected+s.FaultsCorrected > 0 {
		t.AddRow("faults injected/detected/corrected", fmt.Sprintf("%d/%d/%d",
			s.FaultsInjected, s.FaultsDetected, s.FaultsCorrected))
		t.AddRow("fault MTTR (cycles)", s.MTTR())
	}
	if r.TRB != nil {
		t.AddRow("TRB window hits / lookups", fmt.Sprintf("%d / %d", r.TRB.Hits, r.TRB.Lookups))
		t.AddRow("TRB instructions trace-skipped", s.TRBInstrSkipped)
		t.AddRow("trace-served commit share", r.TraceReuseRate())
	}
	if r.IRB != nil {
		t.AddRow("IRB PC hit rate", r.PCHitRate())
		t.AddRow("IRB reuse rate (dup stream)", r.ReuseRate())
		t.AddRow("IRB reuse hits / misses", fmt.Sprintf("%d / %d", s.IRBReuseHits, s.IRBReuseMiss))
		t.AddRow("IRB lookups port-denied", r.IRB.ReadDenied)
		t.AddRow("IRB updates port-denied", r.IRB.WriteDenied)
		t.AddRow("IRB evictions (victim spills)", fmt.Sprintf("%d (%d)",
			r.IRB.Evictions, r.IRB.VictimSpills))
	}
	fmt.Print(t)
}
