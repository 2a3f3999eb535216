package core

import "repro/internal/isa"

// replayState is REPLAY mode's epoch bookkeeping. The mode executes a
// single stream at SIE speed; every epoch (ReplayEpoch committed
// instructions) a replay engine deterministically re-executes the epoch
// from the last checkpoint and compares the two commit streams. The model
// charges that honestly rather than simulating the re-execution twice:
//
//   - Replay bandwidth: the replay engine contends for the same datapath,
//     so each epoch check stalls the pipeline for the cycles the epoch's
//     instruction mix needs through the issue width and FU pools.
//   - Detection latency: a corrupted commit is only *detected* at the
//     epoch boundary, and repair is a rewind to the epoch's checkpoint
//     plus re-execution — so MTTR is epoch-scale by construction, the
//     fundamental trade RepTFD-style schemes make for SIE-speed commit.
//
// Because the replay comparison re-derives every outcome from checkpointed
// architected state, a corrupted signature cannot escape it: REPLAY has no
// silent-corruption channel, only delayed detection.
type replayState struct {
	epoch uint64 // committed instructions per checkpoint interval

	// Current-epoch accumulators, reset at each checkpoint.
	total      uint64    // instructions committed this epoch
	counts     [5]uint64 // per fuBucket, memory folded into IntALU
	faulty     uint64    // commits whose signature differed from the oracle
	startCycle uint64    // cycle the epoch opened
}

func newReplayState(cfg Config) *replayState {
	k := cfg.ReplayEpoch
	if k == 0 {
		k = DefaultReplayEpoch
	}
	return &replayState{epoch: k}
}

// replayObserve records one committing instruction into the open epoch:
// its FU class for the bandwidth charge, and whether its signature
// disagrees with the architected record (a fault the replay comparison
// will surface at the epoch boundary).
func (c *Core) replayObserve(head *uop) {
	r := c.replay
	rec := head.rec
	if rec.Instr.Op.Info().Class != isa.FUNone {
		b := fuBucket(rec.Instr.Op)
		if b == bucketMem {
			// Replay recomputes addresses on the integer ALUs; the
			// memory values themselves come from the checkpoint log,
			// outside the sphere of replication.
			b = bucketIntALU
		}
		r.counts[b]++
	}
	r.total++
	if head.outSig != outSignature(rec, rec.Src1, rec.Src2) {
		r.faulty++
	} else if head.corrupted {
		c.Stats.FaultsMasked++
	}
}

// replayCheckDue reports whether the open epoch has filled.
func (c *Core) replayCheckDue() bool {
	return c.replay != nil && c.replay.total >= c.replay.epoch
}

// replayEpochCheck closes the open epoch: the replay engine re-executes it
// and compares commit streams. The pipeline stalls for the replay
// bandwidth; a detected fault additionally rewinds to the checkpoint and
// re-executes the epoch, charged as a second stall of the epoch's
// duration. Detection latency per fault is the span from the epoch's start
// to the end of its repair, which is what makes REPLAY's MTTR epoch-scale.
func (c *Core) replayEpochCheck() {
	r := c.replay
	if r.total == 0 {
		return
	}
	c.Stats.ReplayEpochs++

	// Bandwidth: the epoch's instructions re-issue through the same
	// issue width and FU pools, whichever is the tighter bottleneck.
	iw := uint64(c.cfg.IssueWidth)
	stall := (r.total + iw - 1) / iw
	for b, n := range r.counts {
		units := uint64(c.cfg.FUs[bucketFUClass(b)])
		if units == 0 || n == 0 {
			continue
		}
		if s := (n + units - 1) / units; s > stall {
			stall = s
		}
	}

	if r.faulty > 0 {
		dur := c.cycle - r.startCycle
		c.Stats.FaultsDetected += r.faulty
		c.Stats.FaultRecoveries++ // one rewind repairs the whole epoch
		c.Stats.FaultRepairs += r.faulty
		// Each fault in the epoch was latent from (at worst) the epoch
		// start and is clean only after the replay pass and the rewound
		// re-execution complete.
		c.Stats.FaultRecoveryCycles += r.faulty * (dur + stall)
		// Rollback: re-executing the epoch costs its original duration
		// again on top of the replay pass.
		stall += dur
	}

	c.Stats.ReplayStallCycles += stall
	c.stallUntil = c.cycle + stall
	// The stall is an accounted-for pause, not a hang.
	c.lastCommitCycle = c.stallUntil

	r.total, r.faulty = 0, 0
	r.counts = [5]uint64{}
	r.startCycle = c.stallUntil
}

// replayFinalCheck closes the last partial epoch when the run ends, so a
// tail fault cannot escape unchecked, and folds the final stall into the
// cycle count (there is no pipeline left to stall).
func (c *Core) replayFinalCheck() {
	if c.replay == nil || c.replay.total == 0 {
		return
	}
	c.replayEpochCheck()
	if c.stallUntil > c.cycle {
		c.cycle = c.stallUntil
		c.Stats.Cycles = c.cycle
	}
}

// bucketFUClass maps an Issued/replay bucket back to the FU class whose
// unit count bounds its replay bandwidth.
func bucketFUClass(b int) isa.FUClass {
	switch b {
	case bucketIntMult:
		return isa.FUIntMult
	case bucketFPAdd:
		return isa.FUFPAdd
	case bucketFPMult:
		return isa.FUFPMult
	default:
		// bucketIntALU, and bucketMem folded into it.
		return isa.FUIntALU
	}
}
