//go:build !perfbench_legacy

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/sim"
)

// Per-layer metrics that only one kind of workload exercises; the other
// kind reports them as 0.
var (
	gridLayers = []string{
		"workload.generate_s", "analysis.preflight_s", "runner.attach_s",
		"fsim.capture_s", "fsim.trace_mb", "core.new_s", "core.run_s",
		"core.fetch_share", "core.dispatch_share", "core.select_share",
		"core.writeback_share", "core.commit_share", "core.recovery_share",
		"core.batch_share", "irb.share", "trb.share", "fsim.share",
		"sim.oracle_share", "runtime.gc_share", "other_share",
		"irb.pc_hit_rate", "irb.reuse_rate", "trb.trace_reuse_rate",
		"fault.fired_share", "runner.tail_s", "runner.alloc_bytes_per_insn",
		"alu_loss_recovered_pct", "loss_recovered_pct", "coverage_pct",
	}
	serveLayers = []string{
		"service.run_ms_p50", "service.response_kb", "service.cache_hit_share",
		"service.rejected", "fabric.journal_append_ms_p50",
		"fabric.miss_overhead_ms_p50", "fabric.lease_expiries",
		"fabric.cells_retried", "hit_ms_p50", "hit_ms_p90", "miss_ms_p50",
		"miss_ms_p90", "req_per_s",
	}
	// nsPerCycleNames are the machines whose host time per simulated
	// cycle is reported, by cell name, across the headline and frontier.
	nsPerCycleNames = []string{"SIE", "DIE", "DIE-IRB", "DIE-2xALU", "REPLAY", "TMR", "DIE-TRB"}
)

func zeroFill(m map[string]float64, names []string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
}

// addOverhead reports, per end-to-end metric, the traced value minus the
// untraced one.
func addOverhead(m, traced, untraced map[string]float64) {
	for name, v := range traced {
		m["overhead."+name] = v - untraced[name]
	}
}

// traceGridWorkload is the traced run of a grid workload. It measures
// untraced passes for a third of the budget, traced passes (spans around
// every call into the runner, a CPU profile, heap accounting) for the
// rest, and then re-runs the fault-free cells of the first untraced pass
// decomposed into their layers, each of which must reproduce the
// untraced result exactly.
func traceGridWorkload(gw gridWorkload, e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	untraced, err := measureGrid(gw, e, e.seconds/3, o, nil)
	if err != nil {
		return nil, err
	}
	base := untraced.endToEnd(o, gw.scaleRun)

	sm, err := loadStageMap(stageMapText)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := measureGrid(gw, e, e.seconds-e.seconds/3, o, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(e.outDir, fmt.Sprintf("cpu-%s-%d.pprof", e.workload, e.seed))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, err := sm.stageShares(samples)
	if err != nil {
		return nil, err
	}
	m := o.metrics
	for _, name := range gridLayers {
		if v, ok := shares[name]; ok {
			m[name] = v
		}
	}
	addOverhead(m, traced.endToEnd(o, gw.scaleRun), base)

	m["runner.tail_s"] = median(traced.tail)
	m["runner.alloc_bytes_per_insn"] = ratio(float64(traced.allocBytes), float64(traced.insns))
	cells, err := decompose(untraced.first, tr, m, o)
	if err != nil {
		return nil, err
	}
	// Layer times are span self times: per pass for the set-up layers,
	// per decomposed cell for the core.
	self := tr.selfTimes()
	m["runner.attach_s"] = self["runner.attach"].Seconds() / float64(traced.passes)
	m["workload.generate_s"] = self["workload.generate"].Seconds()
	m["fsim.capture_s"] = self["fsim.capture"].Seconds()
	m["analysis.preflight_s"] = self["analysis.preflight"].Seconds()
	m["core.new_s"] = self["core.new"].Seconds() / float64(cells)
	m["core.run_s"] = self["core.run"].Seconds() / float64(cells)
	cellRates(untraced.first, m)
	if gw.model != nil {
		for _, r := range gw.model(untraced.first.jobs, untraced.first.outs) {
			m[r.name] = r.value
		}
	}
	m["failed_share"] = ratio(float64(o.failed), float64(o.attempted))
	zeroFill(m, gridLayers)
	zeroFill(m, serveLayers)
	o.digest = untraced.first.digest
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.report = append(o.report,
		reportLine{"spans", float64(len(tr.spans)), "count", path},
		reportLine{"profile_samples", float64(len(samples)), "count", profPath})
	return o, nil
}

// decompose repeats the set-up of pass p one public call at a time —
// sim.ProgramFor, fsim.Capture (as sim.CaptureTrace does) and the
// preflight analysis, once per trace the pass captured — and re-runs its
// fault-free cells through fsim.NewReplay, core.NewAt and Core.Run, with
// a span around each call. Each cell's core.Stats must equal the one in
// p. Verification and fault injection are left out: the decomposed
// cells time the core itself. It returns the number of cells decomposed.
func decompose(p *pass, tr *tracer, metrics map[string]float64, o *outcome) (int, error) {
	root := tr.begin(0, "decompose", "")
	defer tr.end(root)
	// One capture per program and length, as runner.AttachTraces shares
	// them; the pass's own traces are dropped by the time it is decomposed.
	type traceKey struct {
		profile                  string
		seed, insns, fastForward uint64
	}
	traces := map[traceKey]*fsim.Trace{}
	var traceBytes float64
	recSize := float64(unsafe.Sizeof(fsim.Retired{}))
	cells := 0
	nsPerCycle := map[string][2]float64{} // name -> {run ns, cycles}
	for i, j := range p.jobs {
		if p.outs[i].Err != nil {
			continue
		}
		id := fmt.Sprintf("%s/%s#%d", j.Profile.Name, j.Name, i)
		opts := j.Opts
		opts.Trace = nil
		insns := opts.Insns
		if insns == 0 {
			insns = sim.DefaultInsns
		}
		key := traceKey{j.Profile.Name, opts.Seed, insns, opts.FastForward}
		trc, ok := traces[key]
		if !ok {
			sp := tr.begin(root, "workload.generate", id)
			prog, err := sim.ProgramFor(j.Profile, opts)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin(root, "fsim.capture", id)
			trc, err = fsim.Capture(prog, opts.FastForward+insns+sim.TraceSlack)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin(root, "analysis.preflight", id)
			err = trc.Preflight(analysis.Check)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			traces[key] = trc
			traceBytes += float64(trc.Len()) * recSize
		}
		if j.Opts.Injector != nil {
			continue // its trace is set-up work of the pass; the cell is not decomposed
		}
		cell := tr.begin(root, "cell", id)
		sp := tr.begin(cell, "fsim.new_replay", id)
		m := fsim.NewReplay(trc)
		tr.end(sp)
		cfg := j.Config
		cfg.MaxInsns = opts.Insns
		sp = tr.begin(cell, "core.new", id)
		c, err := core.NewAt(cfg, m)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		runErr := c.Run()
		dRun := time.Since(start)
		tr.record(cell, "core.run", id, start, dRun)
		tr.end(cell)
		st := c.Stats
		c.Release()
		o.attempted++
		switch {
		case runErr != nil:
			o.fail("decomposed %s: %v", id, runErr)
		case st != p.outs[i].Result.Core:
			o.fail("decomposed %s: core.Stats differ from the runner's result", id)
		}
		cells++
		v := nsPerCycle[j.Name]
		nsPerCycle[j.Name] = [2]float64{v[0] + float64(dRun.Nanoseconds()), v[1] + float64(st.Cycles)}
	}
	if cells == 0 {
		return 0, fmt.Errorf("no fault-free cell to decompose")
	}
	metrics["fsim.trace_mb"] = traceBytes / (1 << 20)
	for _, n := range nsPerCycleNames {
		v := nsPerCycle[n]
		metrics["core.ns_per_cycle."+n] = ratio(v[0], v[1])
	}
	return cells, nil
}

// cellRates derives the reuse and injection rates of one pass: IRB PC
// hit and reuse rates over the fault-free cells of IRB modes, the TRB's
// trace reuse over its fault-free cells, and the share of injector cells
// whose injector fired.
func cellRates(p *pass, m map[string]float64) {
	var lookups, pcHits, reuse, reuseDen, trbSkipped, trbCommitted, injCells, fired float64
	for i, j := range p.jobs {
		res := p.outs[i].Result
		if p.outs[i].Err != nil {
			continue
		}
		if j.Opts.Injector != nil {
			injCells++
			if injected(j) > 0 {
				fired++
			}
			continue
		}
		caps := j.Config.Mode.Caps()
		if res.IRB != nil && caps.UsesIRB && !caps.IRBAllStreams {
			lookups += float64(res.IRB.Lookups)
			pcHits += float64(res.IRB.PCHits)
			hits := float64(res.Core.IRBReuseHits + res.Core.TRBInstrSkipped)
			reuse += hits
			reuseDen += hits + float64(res.Core.DupFUExec)
		}
		if caps.UsesTRB {
			trbSkipped += float64(res.Core.TRBInstrSkipped)
			trbCommitted += float64(res.Core.Committed)
		}
	}
	m["irb.pc_hit_rate"] = ratio(pcHits, lookups)
	m["irb.reuse_rate"] = ratio(reuse, reuseDen)
	m["trb.trace_reuse_rate"] = ratio(trbSkipped, trbCommitted)
	m["fault.fired_share"] = ratio(fired, injCells)
}
