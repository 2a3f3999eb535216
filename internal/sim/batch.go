package sim

// This file is the batched simulation driver: one prepared run serves K
// lanes that agree on everything but their fault injector. See
// core.BatchSim for the lockstep/divergence model; here is the driver
// plumbing around it — shared setup, the verification oracle on the
// leader, and per-lane result fan-out.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// BatchLane is one cell of a batched run: a display name for its Result
// and the injector that distinguishes it from its siblings. A nil
// Injector is a fault-free lane, served the leader's result directly.
type BatchLane struct {
	Name     string
	Injector core.FaultInjector
}

// BatchOutcome is one lane's terminal state. Exactly one of the two
// shapes applies: a convergent lane carries the Result (bit-identical to
// the lane's own scalar run), a diverged lane carries the strike point
// and must be re-run scalar by the caller after resetting its injector.
type BatchOutcome struct {
	Result Result
	// Diverged reports that the lane's injector fired: from that
	// opportunity on the lane's trajectory differs from the leader's, so
	// the batch has no result for it.
	Diverged bool
	// StruckSeq is the architected sequence number of the leader
	// instruction whose injection opportunity evicted the lane (0 when
	// the strike hit the IRB array or a wrong-path copy).
	StruckSeq uint64
}

// RunBatchContext simulates K lanes of profile p on configuration cfg in
// lockstep through one core, paying program generation, trace replay,
// fetch/decode/dispatch and the verification oracle once for the whole
// batch. Options.Injector must be nil — injectors ride in the lanes — and
// every non-nil lane injector must implement core.BatchableInjector.
//
// The returned slice has one outcome per lane. Convergent lanes' Results
// are bit-identical to what RunContext would produce for them. Their
// injectors may have drawn ahead of where a scalar run would leave them
// (core.BatchSim skips quiet opportunities in windows), so Reset an
// injector before it steers another run. Diverged lanes are flagged for a
// scalar re-run. At least one lane always converges: with no fault-free
// lane, the last injector lane left rides the leader, whose run is then
// that lane's scalar run.
//
// A non-nil error reports that the leader could not complete: the batch
// produced nothing and every lane should fall back to a scalar run, which
// reproduces the error with per-cell granularity.
func RunBatchContext(ctx context.Context, name string, cfg core.Config, p workload.Profile, opts Options, lanes []BatchLane) ([]BatchOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Injector != nil {
		return nil, fmt.Errorf("%w: injectors ride in lanes, not in Options", ErrBatchMisuse)
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("%w: no lanes", ErrBatchMisuse)
	}
	if opts.Insns == 0 {
		opts.Insns = DefaultInsns
	}
	c, prog, p, err := prepareRun(ctx, cfg, p, opts)
	if err != nil {
		return nil, err
	}
	defer c.Release()

	injs := make([]core.FaultInjector, len(lanes))
	for i := range lanes {
		injs[i] = lanes[i].Injector
	}
	bs, err := core.NewBatchSim(c, injs)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		oracle, oerr := commitOracle(c, opts, prog, p.Name, name)
		if oerr != nil {
			return nil, oerr
		}
		c.OnCommit = oracle
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, c.RequestStop)
		defer stop()
	}

	if err := c.Run(); err != nil {
		return nil, mapRunErr(err, ctx, p.Name, name)
	}
	if opts.Program == nil && c.Stats.Committed < opts.Insns {
		return nil, fmt.Errorf("%w: %s on %s committed only %d/%d instructions",
			ErrProgramTooShort, p.Name, name, c.Stats.Committed, opts.Insns)
	}

	leader := harvest(c, p.Name, name, cfg.Mode)
	outs := make([]BatchOutcome, len(lanes))
	for i := range lanes {
		if seq, div := bs.Diverged(i); div {
			outs[i] = BatchOutcome{Diverged: true, StruckSeq: seq}
			continue
		}
		r := leader
		r.Config = lanes[i].Name
		// Lanes must not share mutable state.
		if leader.IRB != nil {
			st := *leader.IRB
			r.IRB = &st
		}
		if leader.TRB != nil {
			st := *leader.TRB
			r.TRB = &st
		}
		outs[i] = BatchOutcome{Result: r}
	}
	return outs, nil
}
