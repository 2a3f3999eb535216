// Command bench measures the simulator's engineering performance — wall
// clock and allocation behaviour, not model fidelity — and writes a
// machine-readable JSON record for longitudinal tracking. Each run emits
// BENCH_<date>.json (override with -out) containing simulated
// instructions per second for every headline configuration with and
// without trace replay, the headline grid's serial and parallel
// wall-clock, the functional interpreter's and replay fast path's
// throughput, and allocations per operation for each measurement.
//
// Usage:
//
//	go run ./cmd/bench                       # full measurement, BENCH_<date>.json
//	go run ./cmd/bench -short -out ci.json   # reduced sizes for CI smoke
//	go run ./cmd/bench -notes "post-refactor"
//	go run ./cmd/bench -insns 100000 -bench gzip,mesa  # custom grid
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the file-level envelope.
type Record struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is the effective worker ceiling (GOMAXPROCS at startup);
	// on cgroup-limited machines it can be far below CPUs, and it — not
	// CPUs — is what the parallel grid numbers scale with.
	GoMaxProcs int      `json:"gomaxprocs"`
	Commit     string   `json:"commit,omitempty"`
	Short      bool     `json:"short,omitempty"`
	Notes      string   `json:"notes,omitempty"`
	Results    []Result `json:"results"`
}

// gitCommit resolves the commit the benchmark binary was built from: the
// embedded VCS stamp when the toolchain recorded one (go build), else a
// direct git query (go run strips the stamp).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	short := flag.Bool("short", false, "reduced instruction budgets for CI smoke runs")
	notes := flag.String("notes", "", "free-form note embedded in the record")
	fl := cliutil.RegisterExperimentFlags(flag.CommandLine, 50_000, "bzip2,mesa,ammp")
	flag.Parse()

	rec := Record{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Short:      *short,
		Notes:      *notes,
	}
	path := *out
	if path == "" {
		path = "BENCH_" + rec.Date + ".json"
	}

	gridOpts := fl.Options()
	insns := gridOpts.Insns
	fsimSteps := uint64(200_000)
	if *short {
		insns, fsimSteps = 10_000, 50_000
		gridOpts.Insns, gridOpts.Benchmarks = insns, []string{"bzip2"}
	}

	measure := func(name string, metric string, denom float64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		res := Result{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if metric != "" && r.NsPerOp() > 0 {
			// Rate metric: work units per second of one operation.
			res.Metrics = map[string]float64{metric: denom / (float64(r.NsPerOp()) / 1e9)}
		}
		rec.Results = append(rec.Results, res)
		fmt.Fprintf(os.Stderr, "%-40s %12.0f ns/op %10d allocs/op\n", name, res.NsPerOp, res.AllocsPerOp)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	gzip, ok := workload.ByName("gzip")
	if !ok {
		fail(fmt.Errorf("gzip profile missing"))
	}
	tr, err := sim.CaptureTrace(gzip, sim.Options{Insns: insns})
	if err != nil {
		fail(err)
	}
	for _, nc := range sim.HeadlineConfigs() {
		nc := nc
		measure("SimulatorThroughput/"+nc.Name, "insns_per_s", float64(insns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(nc.Name, nc.Cfg, gzip, sim.Options{Insns: insns, Trace: tr}); err != nil {
					b.Fatal(err)
				}
			}
		})
		measure("SimulatorThroughputDirect/"+nc.Name, "insns_per_s", float64(insns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(nc.Name, nc.Cfg, gzip, sim.Options{Insns: insns}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// BatchThroughput measures the lockstep core's aggregate bandwidth:
	// one leader serving K injector lanes whose rate is so low they stay
	// convergent, so each operation simulates K*insns lane-instructions
	// for about one scalar run's wall clock. K=1 prices the probe layer
	// itself against SimulatorThroughput/DIE.
	for _, k := range []int{1, 4, 8, 16} {
		lanes := make([]sim.BatchLane, k)
		for i := range lanes {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-9, Seed: uint64(i + 1)})
			if err != nil {
				fail(err)
			}
			lanes[i] = sim.BatchLane{Name: fmt.Sprintf("lane%d", i), Injector: inj}
		}
		measure(fmt.Sprintf("BatchThroughput/K=%d", k), "aggregate_insns_per_s",
			float64(k)*float64(insns), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// NewBatchSim resets each lane injector, so reuse across
					// iterations replays the identical campaign.
					if _, err := sim.RunBatchContext(nil, "DIE", core.BaseDIE(), gzip,
						sim.Options{Insns: insns, Trace: tr}, lanes); err != nil {
						b.Fatal(err)
					}
				}
			})
	}

	// GridFaultCampaign is the macro-benchmark behind the batch planner: a
	// recovery-campaign cell — one config × one workload × many seeds plus
	// the fault-free baseline — swept through the runner with batching on
	// and off. The campaign rate is low enough that most lanes converge,
	// which is the regime the planner wins in; diverged lanes re-run
	// scalar, exactly as production sweeps do.
	campaignSeeds := 32
	if *short {
		campaignSeeds = 8
	}
	campaign := func() []runner.Job {
		jobs := []runner.Job{{
			Name: "DIE/clean", Config: core.BaseDIE(), Profile: gzip,
			Opts: sim.Options{Insns: insns, Trace: tr},
		}}
		for s := 1; s <= campaignSeeds; s++ {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 2e-7, Seed: uint64(s)})
			if err != nil {
				fail(err)
			}
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("DIE/fu-s%d", s), Config: core.BaseDIE(), Profile: gzip,
				Opts: sim.Options{Insns: insns, Trace: tr, Injector: inj},
			})
		}
		return jobs
	}
	campaignInsns := float64(campaignSeeds+1) * float64(insns)
	for _, v := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"scalar", true}} {
		jobs := campaign()
		measure("GridFaultCampaign/"+v.name, "aggregate_insns_per_s", campaignInsns,
			func(b *testing.B) {
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
			})
	}

	grid := func(name string, opts experiments.Options) {
		measure(name, "", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := experiments.Headline(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	serial := gridOpts
	serial.Parallelism = 1
	grid("GridSerial", serial)
	grid("GridParallel", gridOpts)

	prog, err := workload.Generate(gzip.WithIters(1_000_000))
	if err != nil {
		fail(err)
	}
	measure("FunctionalSim/interpret", "insns_per_s", float64(fsimSteps), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fsim.New(prog).Run(fsimSteps); err != nil {
				b.Fatal(err)
			}
		}
	})
	ftr, err := fsim.Capture(prog, fsimSteps)
	if err != nil {
		fail(err)
	}
	measure("FunctionalSim/replay", "insns_per_s", float64(fsimSteps), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fsim.NewReplay(ftr).Run(fsimSteps); err != nil {
				b.Fatal(err)
			}
		}
	})

	buf, err := irb.New(irb.Default())
	if err != nil {
		fail(err)
	}
	for pc := uint64(0); pc < 2048; pc++ {
		buf.Insert(pc, pc, irb.Entry{Src1: pc, Src2: pc, Result: pc * 2})
	}
	measure("IRBLookup", "", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Lookup(uint64(i), uint64(i)%2048)
		}
	})

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println(path)
}
