package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

// gridWorkload is a workload made of simulation cells run by the sweep
// runner: the headline, frontier and campaign workloads.
type gridWorkload struct {
	// build returns fresh cells for seed (fresh fault injectors
	// included), without traces attached, as phases: each phase is one
	// AttachTraces plus one runner.Run, as in the experiment it mirrors.
	build func(seed uint64) ([][]runner.Job, error)
	// check returns an error for a successful cell whose result fails a
	// workload-specific output check (nil when it passes).
	check func(j runner.Job, res sim.Result) error
	// model derives the simulated (exact) metrics of one pass, reported
	// under the names the spec uses.
	model func(jobs []runner.Job, outs []runner.Outcome) []reportLine
	// scaleRun reports insns_per_s and latency_ms_p50 at the reference
	// memory speed, as setup_s always is. It is set where that narrows
	// the ten-seed spread (see README.md, Steadiness).
	scaleRun bool
}

// pass is one complete run of a grid: set-up, simulation, checks.
type pass struct {
	setup, run, wall time.Duration
	insns            uint64 // committed simulated instructions, summed over cells
	jobs             []runner.Job
	outs             []runner.Outcome
	digest           string
	// tail is the time the last cells of each phase ran while a worker
	// had nothing left to start, summed over phases (see phaseTail).
	tail time.Duration
	// allocBytes is the heap allocated during runner.Run (traced passes
	// only: reading it stops the world).
	allocBytes uint64
}

// runPass builds the cells, attaches traces (the set-up a sweep pays:
// program generation plus trace capture), runs them through the runner
// and records every failed check in o. With a tracer it records a span
// around each call into the runner and the heap allocated by runner.Run.
func runPass(gw gridWorkload, seed uint64, workers int, o *outcome, tr *tracer, n int) (*pass, error) {
	t0 := time.Now()
	phases, err := gw.build(seed)
	if err != nil {
		return nil, err
	}
	p := &pass{}
	root := tr.begin(0, "pass", fmt.Sprintf("pass-%d", n))
	for ph, jobs := range phases {
		cell := fmt.Sprintf("pass-%d/phase-%d", n, ph)
		t1 := time.Now()
		sp := tr.begin(root, "runner.attach", cell)
		if err := runner.AttachTraces(jobs); err != nil {
			return nil, err
		}
		tr.end(sp)
		var done []time.Duration
		var ms runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms)
		}
		before := ms.TotalAlloc
		t2 := time.Now()
		sp = tr.begin(root, "runner.run", cell)
		outs, _ := runner.Run(context.Background(), jobs, runner.Options{
			Parallelism: workers,
			Progress:    func(pr runner.Progress) { done = append(done, pr.Elapsed) },
		})
		tr.end(sp)
		p.setup += t2.Sub(t1)
		p.run += time.Since(t2)
		if tr != nil {
			runtime.ReadMemStats(&ms)
			p.allocBytes += ms.TotalAlloc - before
		}
		p.tail += phaseTail(done, workers)
		p.jobs = append(p.jobs, jobs...)
		p.outs = append(p.outs, outs...)
	}
	tr.end(root)
	p.wall = time.Since(t0)
	checkCells(gw, p.jobs, p.outs, o)
	for _, out := range p.outs {
		if out.Err == nil {
			p.insns += out.Result.Core.Committed
		}
	}
	p.digest = digestOutcomes(p.outs)
	return p, nil
}

// phaseTail is the time from the moment a worker first had no cell left
// to start until the last cell finished, from the cells' completion
// times. Once all but workers-1 cells have finished, at least one
// worker is idle.
func phaseTail(done []time.Duration, workers int) time.Duration {
	if len(done) == 0 {
		return 0
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	last := done[len(done)-1]
	if k := len(done) - workers; k >= 0 {
		return last - done[k]
	}
	return last
}

// checkCells counts every cell as attempted and every error or failed
// output check as failed.
func checkCells(gw gridWorkload, jobs []runner.Job, outs []runner.Outcome, o *outcome) {
	for i, out := range outs {
		o.attempted++
		switch {
		case out.Err != nil:
			o.fail("%s on %s: %v", jobs[i].Profile.Name, jobs[i].Name, out.Err)
		case gw.check != nil:
			if err := gw.check(jobs[i], out.Result); err != nil {
				o.fail("%s on %s: %v", jobs[i].Profile.Name, jobs[i].Name, err)
			}
		}
	}
}

// digestOutcomes hashes every cell's result (or error text) in cell
// order. Simulation is deterministic, so equal inputs give equal digests.
func digestOutcomes(outs []runner.Outcome) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, out := range outs {
		errText := ""
		if out.Err != nil {
			errText = out.Err.Error()
		}
		// Encoding a sim.Result cannot fail: it holds only numbers,
		// strings and pointers to structs of numbers.
		_ = enc.Encode(struct {
			R   sim.Result
			Err string
		}{out.Result, errText})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// dropTraces releases the traces pass p attached, keeping its cells and
// results. A kept pass would otherwise hold every trace it captured live
// through the passes measured after it.
func (p *pass) dropTraces() {
	for i := range p.jobs {
		p.jobs[i].Opts.Trace = nil
	}
	for i := range p.outs {
		p.outs[i].Job.Opts.Trace = nil
	}
}

// gridSamples is what the untimed warm-up pass and the timed passes of a
// grid workload measured.
type gridSamples struct {
	first                    *pass // the warm-up pass, traces dropped: reference digest and modelled metrics
	setupS, rate, wall, tail []float64
	residentMB               []float64 // each timed pass's peak resident memory
	speed                    []float64 // speed probe rate before each timed pass
	passes                   int
	allocBytes, insns        uint64 // summed over the timed passes
}

// measureGrid runs one untimed warm-up pass, then timed passes until the
// budget is spent. Every pass must reproduce the warm-up's digest.
func measureGrid(gw gridWorkload, e *env, budget time.Duration, o *outcome, tr *tracer) (*gridSamples, error) {
	probe, err := e.speedProbe()
	if err != nil {
		return nil, err
	}
	first, err := runPass(gw, e.seed, e.workers, o, nil, 0)
	if err != nil {
		return nil, err
	}
	first.dropTraces()
	s := &gridSamples{first: first}
	start := time.Now()
	for s.passes == 0 || time.Since(start) < budget {
		// Start every pass from a collected heap returned to the
		// operating system, so one pass's garbage sets neither the next
		// one's collection schedule nor its peak memory, and no collection
		// runs beside the speed probe.
		debug.FreeOSMemory()
		s.speed = append(s.speed, probe.rate(e.workers))
		stop := sampleResident()
		p, err := runPass(gw, e.seed, e.workers, o, tr, s.passes+1)
		peak := stop()
		if err != nil {
			return nil, err
		}
		s.residentMB = append(s.residentMB, peak)
		s.passes++
		if p.digest != first.digest {
			o.fail("pass %d results differ from the first pass (digest %s, want %s)", s.passes, p.digest, first.digest)
		}
		s.setupS = append(s.setupS, p.setup.Seconds())
		s.rate = append(s.rate, ratio(float64(p.insns), p.run.Seconds()))
		s.wall = append(s.wall, float64(p.wall)/float64(time.Millisecond))
		s.tail = append(s.tail, p.tail.Seconds())
		s.allocBytes += p.allocBytes
		s.insns += p.insns
	}
	return s, nil
}

// speedScale is the machine's memory speed during the timed passes
// relative to the reference speed (see speed.go).
func (s *gridSamples) speedScale() float64 { return median(s.speed) / speedProbeRef }

// endToEnd folds the samples into the end-to-end metrics, with set-up
// time, and with scaleRun the other times, at the reference memory speed.
func (s *gridSamples) endToEnd(o *outcome, scaleRun bool) map[string]float64 {
	scale, run := s.speedScale(), 1.0
	if scaleRun {
		run = scale
	}
	return map[string]float64{
		"setup_s":        median(s.setupS) * scale,
		"insns_per_s":    median(s.rate) / run,
		"latency_ms_p50": median(s.wall) * run,
		"peak_rss_mb":    median(s.residentMB),
		"ok_share":       1 - ratio(float64(o.failed), float64(o.attempted)),
	}
}

// runGridWorkload is the untraced run of a grid workload.
func runGridWorkload(gw gridWorkload, e *env) (*outcome, error) {
	o := &outcome{}
	s, err := measureGrid(gw, e, e.seconds, o, nil)
	if err != nil {
		return nil, err
	}
	o.metrics = s.endToEnd(o, gw.scaleRun)
	o.digest = s.first.digest
	scaled := "setup_s above is"
	if gw.scaleRun {
		scaled = "setup_s, insns_per_s and latency_ms_p50 above are"
	}
	o.report = append(o.report,
		reportLine{"setup_s", o.metrics["setup_s"], "s", fmt.Sprintf("median of %d set-ups; %.4g as measured", s.passes, median(s.setupS))},
		reportLine{"insns_per_s", o.metrics["insns_per_s"], "insn/s", fmt.Sprintf("median of %d passes, %d cells each; %.4g as measured", s.passes, len(s.first.jobs), median(s.rate))},
		reportLine{"latency_ms_p50", o.metrics["latency_ms_p50"], "ms", fmt.Sprintf("one pass, set-up plus simulation; %.4g as measured", median(s.wall))},
		reportLine{"speed_scale", s.speedScale(), "ratio", "memory speed relative to the reference; " + scaled + " at the reference"},
		reportLine{"peak_rss_mb", o.metrics["peak_rss_mb"], "MB", fmt.Sprintf("median over passes of this process's peak; whole run %.1f", selfPeakRSSMB())},
		reportLine{"failed_share", ratio(float64(o.failed), float64(o.attempted)), "share", fmt.Sprintf("%d of %d cells", o.failed, o.attempted)},
	)
	if gw.model != nil {
		o.report = append(o.report, gw.model(s.first.jobs, s.first.outs)...)
	}
	return o, nil
}

// residentSampleEvery is how often sampleResident reads the runtime's
// memory accounting.
const residentSampleEvery = 10 * time.Millisecond

// sampleResident starts sampling the memory the Go runtime holds from
// the operating system (mapped minus released, which is what stays
// resident) and returns a function that stops the sampling and reports
// the peak in MB. Reading runtime/metrics does not stop the world.
func sampleResident() func() float64 {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
	}
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		peak := read()
		t := time.NewTicker(residentSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, read())
			case <-done:
				result <- max(peak, read())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}
