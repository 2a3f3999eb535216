package core

import "repro/internal/stats"

// Stats aggregates the counters of one simulation run. "Architected"
// quantities count program instructions once; "copies" count primary and
// duplicate uops separately.
type Stats struct {
	Cycles          uint64
	Committed       uint64 // architected instructions retired
	CopiesCommitted uint64

	Fetched    uint64 // copies fetched (wrong path included)
	Dispatched uint64 // copies dispatched
	WrongPath  uint64 // wrong-path copies dispatched
	Squashed   uint64 // copies squashed by recovery

	Issued         [5]uint64 // copies issued per FU class bucket (see fuBucket)
	ReadyNotIssued uint64    // copy-cycles ready but not selected (FU/width contention)
	IssueSlotsUsed uint64

	RUUFullStalls uint64 // dispatch stalls: no RUU space
	LSQFullStalls uint64 // dispatch stalls: no LSQ space
	FetchQEmpty   uint64 // dispatch cycles with nothing to dispatch

	Mispredicts    uint64 // correct-path control mispredictions recovered
	RecoveryCycles uint64 // cycles from mispredict dispatch to re-fetch

	// DIE-IRB counters.
	IRBReuseHits uint64 // duplicates that skipped the FUs
	IRBReuseMiss uint64 // PC hits whose operands failed the reuse test
	IRBNotReady  uint64 // PC hits issued to FUs before lookup data arrived
	DupFUExec    uint64 // duplicates executed on functional units

	// DIE-TRB counters (see trb.go).
	TRBBlockHits    uint64 // window entries whose live-ins hit the TRB
	TRBInstrSkipped uint64 // duplicates served a recorded window signature

	// Fault accounting (see internal/fault).
	FaultsInjected  uint64 // faults the injector applied; set by sim's drivers from InjectedCount, not the core
	FaultsDetected  uint64 // commit/vote/replay check caught a signature difference
	FaultsMasked    uint64 // injected but produced no signature difference
	FaultsSilent    uint64 // corrupted result committed undetected (SDC escape)
	FaultsCorrected uint64 // outvoted by a TMR majority: repaired with no rewind

	// REPLAY-mode counters (see replay.go).
	ReplayEpochs      uint64 // epochs checked by the replay engine
	ReplayStallCycles uint64 // cycles the pipeline ceded to replay/rollback

	// Fault recovery (see recovery.go).
	FaultRecoveries     uint64 // architectural rewinds performed
	FaultRetries        uint64 // recoveries beyond the first for the same PC
	FaultRepairs        uint64 // repair windows closed (faulting insn committed)
	FaultRecoveryCycles uint64 // cycles from detection to clean commit, summed
	IRBScrubs           uint64 // corrupted IRB entries invalidated on detection
	TRBScrubs           uint64 // TRB window recordings invalidated on detection

	LoadForwarded uint64 // loads served by store-to-load forwarding
	Loads, Stores uint64 // architected memory operations
}

// IPC returns architected committed instructions per cycle, the metric the
// paper reports (both SIE and DIE count each program instruction once).
func (s *Stats) IPC() float64 { return stats.Ratio(s.Committed, s.Cycles) }

// MTTR returns the mean time to repair in cycles: the average span from a
// commit-time fault detection to the clean commit of the faulting
// instruction, over all repaired faults. Zero when no fault was repaired.
func (s *Stats) MTTR() float64 { return stats.Ratio(s.FaultRecoveryCycles, s.FaultRepairs) }

// fuBucket maps an FU class to its Issued index.
const (
	bucketIntALU = iota
	bucketIntMult
	bucketFPAdd
	bucketFPMult
	bucketMem
)
