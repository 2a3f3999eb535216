package runner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the batch planner and group executor. Grid cells that are
// identical except for their fault injector — a fault campaign's many
// seeds and sites over one (config, workload) cell, plus that cell's
// fault-free baseline — run as one batched sim.RunBatchContext call
// instead of K scalar cells: the leader pays fetch/decode/replay/verify
// once, each lane only its injection probes. Lanes whose injector fires
// diverge from the shared trajectory and join the run's queue as ordinary
// scalar cells the moment their group returns, so batching is invisible
// to callers: per-cell results, errors, progress reports and cache
// entries are exactly those of a scalar sweep.

// simRunBatch is sim.RunBatchContext, indirected like simRun so harness
// tests can substitute it.
var simRunBatch = sim.RunBatchContext

// task is one unit of worker dispatch: a single scalar cell (lanes holds
// its job index) or a batch group (lanes holds every member's index),
// priced for longest-processing-time ordering.
type task struct {
	lanes []int
	batch bool
	cost  float64
}

// newTask builds and prices a task. A batch group is summed over its
// lanes: its leader does one cell's work, but the group stands in for all
// of them and any divergence respawns lanes as scalar cells, so
// scheduling it early keeps the tail short either way.
func newTask(jobs []Job, lanes []int, batch bool) task {
	t := task{lanes: lanes, batch: batch}
	for _, i := range lanes {
		t.cost += jobs[i].Cost()
	}
	return t
}

// batchKey computes the grouping key of a job: the content fingerprint of
// everything that determines its simulation outcome except the injector,
// plus the identities of the attached trace and pinned program. Jobs with
// equal keys follow identical fault-free trajectories (the batch's
// correctness premise); the pointer identities keep cells whose
// error-checking semantics depend on *which* trace or program object they
// carry (ErrTraceMismatch compares by identity) from being served by a
// leader configured with a different one. The second return is false when
// the job cannot join a batch at all: its injector is not batchable, or
// its inputs have no canonical fingerprint.
func batchKey(j Job) (string, bool) {
	if j.Opts.Injector != nil {
		if _, ok := j.Opts.Injector.(core.BatchableInjector); !ok {
			return "", false
		}
	}
	stripped := j
	stripped.Opts.Injector = nil
	fp, err := stripped.Fingerprint()
	if err != nil {
		return "", false
	}
	return fmt.Sprintf("%s|%p|%p", fp, j.Opts.Trace, j.Opts.Program), true
}

// planBatches groups the eligible jobs into batches of lanes. A group
// needs at least two lanes and at least one injector lane — duplicate
// fault-free cells gain nothing from a leader (the result cache already
// dedups them) and batching them would change completion-order behaviour
// for no win. Groups and their lanes come out in first-appearance job
// order, so planning is deterministic in the input.
func planBatches(jobs []Job, eligible func(int) bool) [][]int {
	groups := make(map[string][]int)
	var order []string
	for i := range jobs {
		if !eligible(i) {
			continue
		}
		k, ok := batchKey(jobs[i])
		if !ok {
			continue
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	var out [][]int
	for _, k := range order {
		lanes := groups[k]
		injectors := 0
		for _, i := range lanes {
			if jobs[i].Opts.Injector != nil {
				injectors++
			}
		}
		if len(lanes) < 2 || injectors == 0 {
			continue
		}
		out = append(out, lanes)
	}
	return out
}

// runBatchOnce executes one batch group, converting a panic anywhere
// under the simulation into a *CellPanicError (named after the leader).
func runBatchOnce(ctx context.Context, jobs []Job, lanes []int) (outs []sim.BatchOutcome, err error) {
	leader := jobs[lanes[0]]
	defer func() {
		if v := recover(); v != nil {
			err = cellPanic(leader, v)
		}
	}()
	opts := leader.Opts
	opts.Injector = nil
	bl := make([]sim.BatchLane, len(lanes))
	for k, i := range lanes {
		bl[k] = sim.BatchLane{Name: jobs[i].Name, Injector: jobs[i].Opts.Injector}
	}
	return simRunBatch(ctx, leader.Name, leader.Config, leader.Profile, opts, bl)
}

// runBatchGroup executes one batch group under the per-cell timeout. The
// leader does one cell's work plus, per lane, a PRNG draw at each
// opportunity of the lane's own site and a real probe only where it may
// fire, so the scalar cell bound applies; there is no group-level retry —
// on any failure, timeout included, every lane falls back to a scalar
// cell with the full per-cell timeout-and-retry semantics.
func runBatchGroup(ctx context.Context, jobs []Job, lanes []int, timeout time.Duration) ([]sim.BatchOutcome, error) {
	if timeout <= 0 {
		return runBatchOnce(ctx, jobs, lanes)
	}
	groupCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return runBatchOnce(groupCtx, jobs, lanes)
}
