// Benchmark harness: one testing.B benchmark per figure/table of the
// paper's evaluation (see DESIGN.md's experiment index). Each benchmark
// regenerates its experiment on a reduced workload set and reports the
// figure's key quantities as custom metrics, so `go test -bench=.` gives a
// quick-look reproduction; `go run ./cmd/sweep -exp all` runs the full
// 12-benchmark versions that EXPERIMENTS.md records.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchOpts keeps per-iteration work around a second: three benchmarks
// spanning the key regimes (ALU-bound integer, reuse-rich FP,
// memory-bound FP).
func benchOpts() experiments.Options {
	return experiments.Options{
		Insns:      50_000,
		Benchmarks: []string{"bzip2", "mesa", "ammp"},
	}
}

// BenchmarkFig2 regenerates Figure 2 (the motivation: % IPC loss of DIE
// and its capacity-doubled variants vs SIE) and reports the base DIE and
// DIE-2xALU average losses.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var dieLoss, aluLoss float64
		for bi := range g.Benchmarks {
			sie := g.IPC(bi, 0)
			dieLoss += stats.PctLoss(sie, g.IPC(bi, 1))
			aluLoss += stats.PctLoss(sie, g.IPC(bi, 2))
		}
		n := float64(len(g.Benchmarks))
		b.ReportMetric(dieLoss/n, "%DIE-loss")
		b.ReportMetric(aluLoss/n, "%2xALU-loss")
	}
}

// BenchmarkHeadline regenerates the headline comparison (Figure 7 in the
// reconstruction): the fraction of the ALU-bandwidth and overall IPC loss
// that DIE-IRB gains back. The paper reports ~50% and ~23%.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, _, err := experiments.Headline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.ALUBandwidth, "%ALU-recovered")
		b.ReportMetric(sum.OverallGain, "%overall-recovered")
	}
}

// BenchmarkIRBHit regenerates the IRB effectiveness figure (Figure 8) and
// reports the mean PC-hit and reuse rates.
func BenchmarkIRBHit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.IRBHit(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var pc, reuse float64
		for bi := range g.Benchmarks {
			pc += g.Results[bi][0].PCHitRate()
			reuse += g.Results[bi][0].ReuseRate()
		}
		n := float64(len(g.Benchmarks))
		b.ReportMetric(pc/n, "pc-hit")
		b.ReportMetric(reuse/n, "reuse")
	}
}

// BenchmarkIRBSize regenerates the size sensitivity figure (Figure 9),
// reporting the IPC at the smallest and the paper's 1024-entry points.
func BenchmarkIRBSize(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"gcc"} // the capacity-pressured benchmark
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.IRBSize(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 0), "IPC@128")
		b.ReportMetric(g.IPC(0, 3), "IPC@1024")
	}
}

// BenchmarkConflict regenerates the conflict-miss reduction ablation
// (Figure 10), reporting the reuse recovered by the victim buffer on the
// alias-afflicted benchmark.
func BenchmarkConflict(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"parser"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Conflict(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.Results[0][0].ReuseRate(), "reuse-DM")
		b.ReportMetric(g.Results[0][2].ReuseRate(), "reuse-victim16")
	}
}

// BenchmarkIRBPorts regenerates the port sensitivity figure (Figure 11).
func BenchmarkIRBPorts(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Ports(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 0), "IPC@1R")
		b.ReportMetric(g.IPC(0, 2), "IPC@4R")
	}
}

// BenchmarkFaultCoverage regenerates the Section 3.4 validation (Table 2
// in the reconstruction): detection coverage of the check-&-retire
// comparison under fault injection.
func BenchmarkFaultCoverage(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Faults(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			// The IRB-integrated mode's FU-site campaign, selected by
			// capability rather than mode identity.
			if r.Mode.Caps().UsesIRB && r.Site == "fu" {
				b.ReportMetric(r.Coverage(), "fu-coverage")
			}
		}
	}
}

// BenchmarkAblationDup regenerates ablation A (duplicate-only vs
// both-streams IRB policy).
func BenchmarkAblationDup(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.AblationDup(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 0), "IPC-dup-only")
		b.ReportMetric(g.IPC(0, 1), "IPC-both")
	}
}

// BenchmarkAblationFwd regenerates ablation B (no-forwarding vs
// IRB-as-functional-unit).
func BenchmarkAblationFwd(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.AblationFwd(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 0), "IPC-no-fwd")
		b.ReportMetric(g.IPC(0, 1), "IPC-as-FU")
	}
}

// BenchmarkGridSerial and BenchmarkGridParallel time the same headline
// grid through the sweep runner with one worker and with every core;
// their ratio is the wall-clock speedup recorded in EXPERIMENTS.md. On a
// single-CPU machine the two are equivalent by construction.
func BenchmarkGridSerial(b *testing.B) {
	opts := benchOpts()
	opts.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.Headline(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridParallel(b *testing.B) {
	opts := benchOpts() // Parallelism 0 = GOMAXPROCS workers
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.Headline(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures the simulator's own speed in
// simulated instructions per wall-clock second, per execution mode, on
// the grid hot path: one trace captured up front (as the sweep harness
// does) and replayed by every timed run, so the numbers reflect the
// timing core itself, not workload generation.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, _ := workload.ByName("gzip")
	const insns = 50_000
	tr, err := sim.CaptureTrace(p, sim.Options{Insns: insns})
	if err != nil {
		b.Fatal(err)
	}
	for _, nc := range sim.HeadlineConfigs() {
		b.Run(nc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(nc.Name, nc.Cfg, p, sim.Options{Insns: insns, Trace: tr}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
		})
	}
}

// BenchmarkSimulatorThroughputDirect is the same measurement without the
// shared trace: every run generates and interprets its own program. The
// gap to BenchmarkSimulatorThroughput is what trace replay saves per cell.
func BenchmarkSimulatorThroughputDirect(b *testing.B) {
	p, _ := workload.ByName("gzip")
	for _, nc := range sim.HeadlineConfigs() {
		b.Run(nc.Name, func(b *testing.B) {
			b.ReportAllocs()
			const insns = 50_000
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(nc.Name, nc.Cfg, p, sim.Options{Insns: insns}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
		})
	}
}

// campaignInsns is the per-cell budget of the batched-lockstep
// benchmarks: a shared 50k-instruction gzip trace, the size the committed
// batch records were taken at.
const campaignInsns = 50_000

// dieCampaignSetup resolves DIE through the mode registry and captures
// the gzip trace every batched-lockstep benchmark replays.
func dieCampaignSetup(b *testing.B) (core.Config, workload.Profile, *fsim.Trace) {
	b.Helper()
	mi, ok := core.ModeByName("DIE")
	if !ok {
		b.Fatal("DIE is not a registered mode")
	}
	p, _ := workload.ByName("gzip")
	tr, err := sim.CaptureTrace(p, sim.Options{Insns: campaignInsns})
	if err != nil {
		b.Fatal(err)
	}
	return mi.Base(), p, tr
}

// BenchmarkBatchThroughput measures the lockstep core's aggregate
// bandwidth: one DIE leader serving K FU-fault lanes whose rate (1e-9) is
// so low they stay convergent, so each operation simulates K lanes'
// instructions for about one scalar run's wall clock. K=1 prices the
// probe layer against SimulatorThroughput/DIE.
func BenchmarkBatchThroughput(b *testing.B) {
	cfg, p, tr := dieCampaignSetup(b)
	for _, k := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			lanes := make([]sim.BatchLane, k)
			for i := range lanes {
				inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-9, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				lanes[i] = sim.BatchLane{Name: fmt.Sprintf("lane%d", i), Injector: inj}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The batch resets each lane injector, so reusing the lanes
				// replays the identical campaign.
				if _, err := sim.RunBatchContext(context.Background(), "DIE", cfg, p,
					sim.Options{Insns: campaignInsns, Trace: tr}, lanes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k*campaignInsns)*float64(b.N)/b.Elapsed().Seconds(), "aggregate-insns/s")
		})
	}
}

// BenchmarkGridFaultCampaign is the macro-benchmark behind the batch
// planner: one recovery campaign (DIE on gzip, the fault-free baseline
// plus 32 FU seeds at 2e-7) swept through runner.Run on one worker with
// the planner on and off. Most lanes converge at this rate, the regime
// batching wins in; diverged lanes re-run scalar, as in any sweep. CI's
// batch-smoke job requires batched aggregate-insns/s of at least twice
// scalar.
func BenchmarkGridFaultCampaign(b *testing.B) {
	cfg, p, tr := dieCampaignSetup(b)
	jobs := []runner.Job{{Name: "DIE/clean", Config: cfg, Profile: p,
		Opts: sim.Options{Insns: campaignInsns, Trace: tr}}}
	for s := 1; s <= 32; s++ {
		inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 2e-7, Seed: uint64(s)})
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, runner.Job{Name: fmt.Sprintf("DIE/fu-s%d", s), Config: cfg, Profile: p,
			Opts: sim.Options{Insns: campaignInsns, Trace: tr, Injector: inj}})
	}
	for _, v := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"scalar", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The runner resets batchable injectors before every
				// dispatch, so the job set is reusable across iterations.
				outs, err := runner.Run(context.Background(), jobs,
					runner.Options{Parallelism: 1, NoBatch: v.noBatch})
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
			b.ReportMetric(float64(len(jobs)*campaignInsns)*float64(b.N)/b.Elapsed().Seconds(), "aggregate-insns/s")
		})
	}
}

// BenchmarkFunctionalSim measures the golden-model interpreter alone, and
// the trace-replay fast path that substitutes for it on grid runs.
func BenchmarkFunctionalSim(b *testing.B) {
	p, _ := workload.ByName("gzip")
	prog, err := workload.Generate(p.WithIters(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interpret", func(b *testing.B) {
		b.ReportAllocs()
		var total uint64
		for i := 0; i < b.N; i++ {
			m := fsim.New(prog)
			n, err := m.Run(200_000)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insns/s")
	})
	b.Run("replay", func(b *testing.B) {
		tr, err := fsim.Capture(prog, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		var total uint64
		for i := 0; i < b.N; i++ {
			m := fsim.NewReplay(tr)
			n, err := m.Run(200_000)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insns/s")
	})
}

// BenchmarkIRBLookup measures the reuse buffer microarchitecture model.
func BenchmarkIRBLookup(b *testing.B) {
	buf, err := irb.New(irb.Default())
	if err != nil {
		b.Fatal(err)
	}
	for pc := uint64(0); pc < 2048; pc++ {
		buf.Insert(pc, pc, irb.Entry{Src1: pc, Src2: pc, Result: pc * 2})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Lookup(uint64(i), uint64(i)%2048)
	}
}

// BenchmarkScheduler regenerates the Section 3.3 scheduler matrix
// (data-capture vs decoupled, value- vs name-based reuse tests).
func BenchmarkScheduler(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Scheduler(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 0), "IPC-capture-value")
		b.ReportMetric(g.IPC(0, 3), "IPC-decoupled-name")
	}
}

// BenchmarkCluster regenerates the clustered-alternative comparison from
// the paper's Section 3 discussion.
func BenchmarkCluster(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Cluster(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.IPC(0, 1), "IPC-DIE")
		b.ReportMetric(g.IPC(0, 2), "IPC-cluster")
		b.ReportMetric(g.IPC(0, 3), "IPC-DIE-IRB")
	}
}

// BenchmarkPrior24 regenerates the introduction's prior-work claim
// ([24]: DIE loses up to 45% vs SIE) over both workload suites.
func BenchmarkPrior24(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.Prior24(experiments.Options{Insns: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for bi := range g.Benchmarks {
			if l := stats.PctLoss(g.IPC(bi, 0), g.IPC(bi, 1)); l > worst {
				worst = l
			}
		}
		b.ReportMetric(worst, "%worst-DIE-loss")
	}
}

// BenchmarkReuseSources regenerates the reuse-sources extension table
// (squash reuse on DIE-IRB, Sn+d chaining on SIE-IRB).
func BenchmarkReuseSources(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"bzip2"}
	for i := 0; i < b.N; i++ {
		g, _, err := experiments.ReuseSources(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.Results[0][0].ReuseRate(), "reuse-base")
		b.ReportMetric(g.Results[0][1].ReuseRate(), "reuse-squash")
	}
}
