// Package sim is the top-level simulation driver: it generates a workload
// program, runs it through a configured core, optionally verifies the
// retired instruction stream against an independent functional execution,
// and collects the statistics the experiment harness reports. It also
// defines the named machine configurations of each experiment in the
// paper (see DESIGN.md's experiment index).
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/program"
	"repro/internal/trb"
	"repro/internal/workload"
)

// Options control one simulation run.
type Options struct {
	// Insns is the architected instruction budget. The workload is sized
	// to outlast it, so every configuration commits exactly this many
	// instructions — the basis for IPC comparisons.
	Insns uint64
	// Verify cross-checks every committed instruction against an
	// independent in-order functional execution. Costs ~15% runtime;
	// tests keep it on, large sweeps may disable it. A mismatch surfaces
	// as a *DivergenceError.
	Verify bool
	// Injector, when non-nil, is installed as the core's fault injector.
	Injector core.FaultInjector
	// FastForward functionally executes this many instructions before
	// the timing simulation starts, skipping initialization phases the
	// way SimpleScalar's -fastfwd does. Caches and predictors start
	// cold at the measurement point.
	FastForward uint64
	// Seed, when non-zero, perturbs the workload generator: it is XORed
	// into the profile's own seed, so a single sweep-level seed still
	// gives every benchmark a distinct program. The zero value keeps the
	// profile's fixed seed and is byte-identical to the behaviour the
	// recorded EXPERIMENTS.md numbers were measured with.
	Seed uint64
	// Program, when non-nil, runs this exact pre-built program instead of
	// generating one from the profile — the path kernels and externally
	// assembled programs take. The profile's workload knobs (and Seed) are
	// ignored and the program's own name is reported as the benchmark.
	// The instruction budget still caps the run, but a program that halts
	// before exhausting it is not an error in this mode.
	Program *program.Program
	// Trace, when non-nil, replays this pre-captured functional execution
	// (see CaptureTrace) instead of generating and re-interpreting the
	// program: the run executes the trace's own program and both the
	// dispatch front and the verification oracle draw values from the
	// recorded stream, which is bit-identical to direct interpretation by
	// construction. runner.Run captures one trace for each workload that
	// two or more of its cells run and shares it read-only among them.
	Trace *fsim.Trace
}

// DivergenceError reports that a committed instruction did not match the
// independent functional oracle (or that the oracle itself could not
// step). It is returned — not panicked — by Run/RunContext so callers,
// including the parallel sweep runner, can handle verification failure
// as an ordinary per-run error value.
type DivergenceError struct {
	Bench  string // workload profile name
	Config string // configuration display name
	Seq    uint64 // architected sequence number of the divergent commit
	// Got is the record the timing core retired; Want is the oracle's.
	// Both are zero when OracleErr is set.
	Got, Want fsim.Retired
	// OracleErr is non-nil when the oracle failed to produce a record at
	// all (e.g. it halted before the timing core did).
	OracleErr error
}

func (e *DivergenceError) Error() string {
	if e.OracleErr != nil {
		return fmt.Sprintf("sim: %s on %s: oracle failed at seq %d: %v",
			e.Bench, e.Config, e.Seq, e.OracleErr)
	}
	return fmt.Sprintf("sim: %s on %s diverged from functional execution at seq %d:\n got %+v\nwant %+v",
		e.Bench, e.Config, e.Seq, e.Got, e.Want)
}

func (e *DivergenceError) Unwrap() error { return e.OracleErr }

// Sentinel errors for the programmatically distinguishable run failures.
// RunContext wraps each with the run's particulars via %w, so callers
// select on the condition with errors.Is and never on message text.
var (
	// ErrTraceMismatch: Options.Trace was captured from a different
	// program than the one the run was asked to execute.
	ErrTraceMismatch = errors.New("sim: trace does not match requested program")
	// ErrHaltedEarly: the functional machine halted before the
	// fast-forward window completed.
	ErrHaltedEarly = errors.New("sim: machine halted during fast-forward")
	// ErrProgramTooShort: a generated program ran out of instructions
	// before the measured budget was committed.
	ErrProgramTooShort = errors.New("sim: program too short for instruction budget")
	// ErrTraceExhausted: the verification oracle's recorded stream ended
	// before the timing core stopped committing (surfaced inside a
	// *DivergenceError's OracleErr chain).
	ErrTraceExhausted = errors.New("sim: trace exhausted before run completed")
	// ErrBatchMisuse: RunBatchContext was handed a shape it cannot honor
	// (no lanes, or an injector in Options instead of a lane).
	ErrBatchMisuse = errors.New("sim: invalid batch run specification")
)

// DefaultInsns is the per-benchmark instruction budget used by the
// experiment harness; large enough for the caches, predictor and IRB to
// reach steady state, small enough for full sweeps on a laptop.
const DefaultInsns = 300_000

// Result is the outcome of one run.
type Result struct {
	Bench        string
	Config       string
	Mode         core.Mode
	IPC          float64
	Core         core.Stats
	IRB          *irb.Stats // nil when the mode has no IRB
	TRB          *trb.Stats // nil when the mode has no trace reuse buffer
	Bpred        bpred.Stats
	L1I, L1D, L2 cache.Stats
}

// ReuseRate returns the fraction of reuse-eligible executions served by
// a reuse structure rather than a functional unit: for dual modes,
// duplicate-stream hits (per-instruction IRB hits plus TRB-served window
// instructions) over those hits plus duplicate FU executions; for modes
// whose every stream consults the IRB (SIE-IRB), reuse hits over reuse
// hits plus all FU issues.
func (r Result) ReuseRate() float64 {
	hits := r.Core.IRBReuseHits + r.Core.TRBInstrSkipped
	den := hits + r.Core.DupFUExec
	if r.Mode.Caps().IRBAllStreams {
		den = r.Core.IRBReuseHits + r.Core.IssueSlotsUsed
		hits = r.Core.IRBReuseHits
	}
	if den == 0 {
		return 0
	}
	return float64(hits) / float64(den)
}

// TraceReuseRate returns the fraction of committed architected
// instructions whose duplicate was served by a TRB window hit — the
// trace-level share of the overall reuse. Zero for modes without a TRB.
func (r Result) TraceReuseRate() float64 {
	if r.Core.Committed == 0 {
		return 0
	}
	return float64(r.Core.TRBInstrSkipped) / float64(r.Core.Committed)
}

// PCHitRate returns the IRB's PC-tag hit rate.
func (r Result) PCHitRate() float64 {
	if r.IRB == nil || r.IRB.Lookups == 0 {
		return 0
	}
	return float64(r.IRB.PCHits) / float64(r.IRB.Lookups)
}

// ProgramFor returns the exact program RunContext would execute for p and
// opts: the Options.Program override when set, otherwise the generated
// workload sized to outlast the instruction budget with margin. Static
// tooling (cmd/irblint, the experiments cross-validation) uses it to
// analyze precisely what a run measures.
func ProgramFor(p workload.Profile, opts Options) (*program.Program, error) {
	if opts.Program != nil {
		return opts.Program, nil
	}
	if opts.Trace != nil {
		return opts.Trace.Prog(), nil
	}
	if opts.Insns == 0 {
		opts.Insns = DefaultInsns
	}
	if opts.Seed != 0 {
		p.Seed ^= opts.Seed
	}
	return workload.Generate(p.WithIters(opts.FastForward + opts.Insns + opts.Insns/3))
}

// TraceSlack is the extra margin CaptureTrace records beyond
// FastForward+Insns. The dispatch front steps the functional machine when
// it dispatches, so it runs ahead of commit by at most the RUU's
// capacity, and a trace sized exactly to the commit budget would force the
// last window of instructions back onto the interpreter; the slack keeps
// the whole run on the replay fast path. 512 is twice the largest RUU any
// configuration here has (256 entries, the 2xRUU machines). Correctness
// never depends on it: a machine that outruns its trace falls back to
// interpretation with bit-identical results.
const TraceSlack = 512

// CaptureTrace functionally executes the exact program RunContext would
// run for (p, opts) and records its retired stream. The returned trace is
// immutable and safe to share: set as Options.Trace on every cell that
// runs the workload, it lets the workload be generated and interpreted
// once instead of once per cell.
func CaptureTrace(p workload.Profile, opts Options) (*fsim.Trace, error) {
	if opts.Insns == 0 {
		opts.Insns = DefaultInsns
	}
	prog, err := ProgramFor(p, opts)
	if err != nil {
		return nil, err
	}
	return fsim.Capture(prog, opts.FastForward+opts.Insns+TraceSlack)
}

// Run simulates profile p on configuration cfg. It is RunContext with a
// background context.
func Run(name string, cfg core.Config, p workload.Profile, opts Options) (Result, error) {
	return RunContext(context.Background(), name, cfg, p, opts)
}

// RunContext simulates profile p on configuration cfg, stopping early
// with ctx.Err() if the context is cancelled mid-run. Verification
// failures are returned as *DivergenceError values.
func RunContext(ctx context.Context, name string, cfg core.Config, p workload.Profile, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Insns == 0 {
		opts.Insns = DefaultInsns
	}
	c, prog, p, err := prepareRun(ctx, cfg, p, opts)
	if err != nil {
		return Result{}, err
	}
	// Return the core's recycled buffers (event heap, uop arena) to the
	// shared pool once the stats below have been copied out.
	defer c.Release()
	if opts.Injector != nil {
		c.SetInjector(opts.Injector)
	}
	if opts.Verify {
		oracle, oerr := commitOracle(c, opts, prog, p.Name, name)
		if oerr != nil {
			return Result{}, oerr
		}
		c.OnCommit = oracle
	}
	if ctx.Done() != nil {
		// Propagate cancellation into the core's cycle loop so a long
		// run stops within one cycle of the context ending.
		stop := context.AfterFunc(ctx, c.RequestStop)
		defer stop()
	}
	if err := c.Run(); err != nil {
		return Result{}, mapRunErr(err, ctx, p.Name, name)
	}
	if opts.Program == nil && c.Stats.Committed < opts.Insns {
		return Result{}, fmt.Errorf("%w: %s on %s committed only %d/%d instructions",
			ErrProgramTooShort, p.Name, name, c.Stats.Committed, opts.Insns)
	}
	res := harvest(c, p.Name, name, cfg.Mode)
	if bi, ok := opts.Injector.(core.BatchableInjector); ok {
		res.Core.FaultsInjected = bi.InjectedCount()
	}
	return res, nil
}

// prepareRun performs everything that precedes the cycle loop, shared by
// the scalar and batched drivers: the trace-agreement checks, program
// resolution, the preflight analysis, the functional machine (replaying
// the trace when one is attached), the fast-forward window, and core
// construction. It returns the profile with its display name resolved (a
// pinned program reports its own name as the benchmark). On success the
// caller owns the core and must Release it.
func prepareRun(ctx context.Context, cfg core.Config, p workload.Profile, opts Options) (*core.Core, *program.Program, workload.Profile, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, p, err
	}
	if tr := opts.Trace; tr != nil {
		// A trace fixes the executed program, so it must agree with the
		// other program sources: the explicit Program override by identity,
		// the profile by name (generated programs are named after their
		// profile). Catching a mismatched hand-off here turns a silent
		// wrong-benchmark result into an immediate error.
		if opts.Program != nil && opts.Program != tr.Prog() {
			return nil, nil, p, fmt.Errorf("%w: captured from %q, Options.Program is %q",
				ErrTraceMismatch, tr.Prog().Name, opts.Program.Name)
		}
		if opts.Program == nil && tr.Prog().Name != p.Name {
			return nil, nil, p, fmt.Errorf("%w: captured from %q, profile is %q",
				ErrTraceMismatch, tr.Prog().Name, p.Name)
		}
	}
	prog, err := ProgramFor(p, opts)
	if err != nil {
		return nil, nil, p, err
	}
	if opts.Program != nil {
		p.Name = prog.Name
	}
	// Preflight: reject ill-formed programs with a structured diagnostic
	// before spending any cycles on them. The first finding is available
	// via errors.As(err, &(*analysis.Diagnostic)). Runs sharing a trace
	// share one memoized check instead of re-analyzing per cell.
	var preErr error
	if opts.Trace != nil {
		preErr = opts.Trace.Preflight(analysis.Check)
	} else {
		preErr = analysis.Check(prog)
	}
	if preErr != nil {
		return nil, nil, p, fmt.Errorf("sim: preflight rejected %s: %w", prog.Name, preErr)
	}
	cfg.MaxInsns = opts.Insns
	// The dispatch front replays the captured stream when a trace is
	// available — applying recorded values instead of decoding and
	// evaluating — and falls back to interpretation past the trace's end.
	var m *fsim.Machine
	if opts.Trace != nil {
		m = fsim.NewReplay(opts.Trace)
	} else {
		m = fsim.New(prog)
	}
	if opts.FastForward > 0 {
		ran, ferr := m.Run(opts.FastForward)
		if ferr != nil {
			return nil, nil, p, ferr
		}
		if ran < opts.FastForward || m.Halted {
			return nil, nil, p, fmt.Errorf("%w: %s ran %d/%d", ErrHaltedEarly,
				p.Name, ran, opts.FastForward)
		}
	}
	c, err := core.NewAt(cfg, m)
	if err != nil {
		return nil, nil, p, err
	}
	return c, prog, p, nil
}

// mapRunErr converts a core.Run error into the driver's documented error
// surface: a *DivergenceError passes through, an *UnrecoverableFaultError
// is stamped with the run's identity, a stop caused by the caller's
// context becomes that context's error, and anything else is wrapped with
// the run's name.
func mapRunErr(err error, ctx context.Context, bench, config string) error {
	var div *DivergenceError
	if errors.As(err, &div) {
		return div
	}
	var uf *core.UnrecoverableFaultError
	if errors.As(err, &uf) {
		// A persistent fault exhausted the bounded retry budget:
		// a structured per-run outcome, like a divergence.
		uf.Bench, uf.Config = bench, config
		return uf
	}
	if errors.Is(err, core.ErrStopped) && ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("sim: %s on %s: %w", bench, config, err)
}

// harvest copies a finished core's statistics into a Result.
func harvest(c *core.Core, bench, config string, mode core.Mode) Result {
	res := Result{
		Bench:  bench,
		Config: config,
		Mode:   mode,
		IPC:    c.Stats.IPC(),
		Core:   c.Stats,
		Bpred:  c.Bpred().Stats,
	}
	res.L1I = c.Mem().L1I.Stats
	res.L1D = c.Mem().L1D.Stats
	res.L2 = c.Mem().L2.Stats
	if b := c.IRB(); b != nil {
		st := b.Stats
		res.IRB = &st
	}
	if b := c.TRB(); b != nil {
		st := b.Stats
		res.TRB = &st
	}
	return res
}

// sameCommit reports whether the core's retired record agrees with the
// oracle's on every architecturally visible field.
func sameCommit(rec *fsim.Retired, want *fsim.Retired) bool {
	return rec.Seq == want.Seq && rec.PC == want.PC && rec.Result == want.Result &&
		rec.NextPC == want.NextPC && rec.Addr == want.Addr
}

// commitOracle builds the Verify callback comparing every committed
// instruction against an independent functional execution. When the trace
// covers the whole measured run the oracle is just a cursor over the
// recorded stream — no second interpreter runs at all; otherwise it steps
// a dedicated machine (itself replay-backed when a partial trace exists,
// falling back to interpretation past its end).
func commitOracle(c *core.Core, opts Options, prog *program.Program, bench, config string) (func(*fsim.Retired), error) {
	var diverged bool
	abort := func(e *DivergenceError) {
		diverged = true
		e.Bench, e.Config = bench, config
		c.Abort(e)
	}
	if tr := opts.Trace; tr != nil && tr.Covers(opts.FastForward+opts.Insns) {
		// The cursor rebuilds each expected record into the oracle's own
		// want, never into the core's recs.
		cur := tr.ReplayFrom(opts.FastForward)
		var want fsim.Retired
		return func(rec *fsim.Retired) {
			if diverged {
				return
			}
			if !cur.Next(&want) {
				abort(&DivergenceError{Seq: rec.Seq,
					OracleErr: fmt.Errorf("%w: trace of %q ended at seq %d", ErrTraceExhausted, prog.Name, rec.Seq)})
				return
			}
			if !sameCommit(rec, &want) {
				abort(&DivergenceError{Seq: want.Seq, Got: *rec, Want: want})
			}
		}, nil
	}
	var oracle *fsim.Machine
	if opts.Trace != nil {
		oracle = fsim.NewReplay(opts.Trace)
	} else {
		oracle = fsim.New(prog)
	}
	if opts.FastForward > 0 {
		if _, ferr := oracle.Run(opts.FastForward); ferr != nil {
			return nil, ferr
		}
	}
	var want fsim.Retired
	return func(rec *fsim.Retired) {
		if diverged {
			return
		}
		if oerr := oracle.Step(&want); oerr != nil {
			abort(&DivergenceError{Seq: rec.Seq, OracleErr: oerr})
			return
		}
		if !sameCommit(rec, &want) {
			abort(&DivergenceError{Seq: want.Seq, Got: *rec, Want: want})
		}
	}, nil
}

// NamedConfig pairs a configuration with its display name.
type NamedConfig struct {
	Name string
	Cfg  core.Config
}

// FrontierConfigs returns the machines of the redundancy frontier
// comparison, resolved through the core mode registry: the plain
// single-stream baseline plus every registered mode that detects faults.
// The list is what `sweep -exp frontier` places on one
// IPC-vs-coverage-vs-MTTR table; a newly registered detecting mode joins
// it with no code change here.
func FrontierConfigs() []NamedConfig {
	var out []NamedConfig
	for _, mi := range core.Modes() {
		// The baseline is recognized by capability, not by name: one
		// stream, no commit-time comparison, no reuse buffer.
		baseline := mi.Caps.Streams == 1 && mi.Caps.Compare == core.CompareNone && !mi.Caps.UsesIRB
		if baseline || mi.Caps.Detects {
			out = append(out, NamedConfig{string(mi.Mode), mi.Base()})
		}
	}
	return out
}

// Fig2Configs returns the eight machines of the paper's Figure 2
// motivation experiment (plus the SIE baseline first): DIE with each
// combination of doubled ALUs, doubled RUU/LSQ and doubled widths.
func Fig2Configs() []NamedConfig {
	die := core.BaseDIE()
	return []NamedConfig{
		{"SIE", core.BaseSIE()},
		{"DIE", die},
		{"DIE-2xALU", die.WithDoubledALUs()},
		{"DIE-2xRUU", die.WithDoubledRUU()},
		{"DIE-2xWidths", die.WithDoubledWidths()},
		{"DIE-2xALU-2xRUU", die.WithDoubledALUs().WithDoubledRUU()},
		{"DIE-2xALU-2xWidths", die.WithDoubledALUs().WithDoubledWidths()},
		{"DIE-2xRUU-2xWidths", die.WithDoubledRUU().WithDoubledWidths()},
		{"DIE-2xALU-2xRUU-2xWidths", die.WithDoubledALUs().WithDoubledRUU().WithDoubledWidths()},
	}
}

// HeadlineConfigs returns the machines of the headline comparison: the
// SIE bound, the DIE floor, the proposed DIE-IRB, and the idealized
// DIE-2xALU that DIE-IRB approximates without issue-logic growth.
func HeadlineConfigs() []NamedConfig {
	return []NamedConfig{
		{"SIE", core.BaseSIE()},
		{"DIE", core.BaseDIE()},
		{"DIE-IRB", core.BaseDIEIRB()},
		{"DIE-2xALU", core.BaseDIE().WithDoubledALUs()},
	}
}

// IRBSizeConfigs returns DIE-IRB with the given IRB entry counts.
func IRBSizeConfigs(sizes []int) []NamedConfig {
	out := make([]NamedConfig, 0, len(sizes))
	for _, n := range sizes {
		cfg := core.BaseDIEIRB()
		cfg.IRB.Entries = n
		out = append(out, NamedConfig{fmt.Sprintf("DIE-IRB-%d", n), cfg})
	}
	return out
}

// ConflictConfigs returns the conflict-miss reduction ablation: the
// direct-mapped baseline, the victim-buffer extension, and 2/4-way
// set-associative variants at equal capacity.
func ConflictConfigs() []NamedConfig {
	mk := func(name string, assoc, victim int) NamedConfig {
		cfg := core.BaseDIEIRB()
		cfg.IRB.Assoc = assoc
		cfg.IRB.VictimEntries = victim
		return NamedConfig{name, cfg}
	}
	return []NamedConfig{
		mk("DM", 1, 0),
		mk("DM+victim8", 1, 8),
		mk("DM+victim16", 1, 16),
		mk("2-way", 2, 0),
		mk("4-way", 4, 0),
	}
}

// PortConfigs returns DIE-IRB with varying read-port provisioning (write
// ports scale at half the reads, as in the paper's 4R/2W/2RW split).
func PortConfigs(reads []int) []NamedConfig {
	out := make([]NamedConfig, 0, len(reads))
	for _, r := range reads {
		cfg := core.BaseDIEIRB()
		cfg.IRB.ReadPorts = r
		cfg.IRB.WritePorts = (r + 1) / 2
		cfg.IRB.RWPorts = r / 2
		out = append(out, NamedConfig{fmt.Sprintf("DIE-IRB-%dR%dW%dRW", r, (r+1)/2, r/2), cfg})
	}
	return out
}

// SchedulerConfigs returns the Section 3.3 issue-logic matrix: the default
// data-capture scheduler with the value-based reuse test, the decoupled
// (non-data-capture) scheduler, and the name-based reuse test on both.
func SchedulerConfigs() []NamedConfig {
	mk := func(name string, sched core.SchedulerKind, nameBased bool) NamedConfig {
		cfg := core.BaseDIEIRB()
		cfg.Scheduler = sched
		cfg.IRBNameBased = nameBased
		return NamedConfig{name, cfg}
	}
	return []NamedConfig{
		mk("capture/value", core.DataCapture, false),
		mk("capture/name", core.DataCapture, true),
		mk("decoupled/value", core.Decoupled, false),
		mk("decoupled/name", core.Decoupled, true),
	}
}

// ClusterConfigs returns the clustered-alternative comparison of the
// paper's Section 3 discussion: the shared-resource DIE, the resource-
// replicating clustered DIE, and the proposed DIE-IRB.
func ClusterConfigs() []NamedConfig {
	clu := core.BaseDIE()
	clu.Clustered = true
	return []NamedConfig{
		{"SIE", core.BaseSIE()},
		{"DIE", core.BaseDIE()},
		{"DIE-cluster", clu},
		{"DIE-IRB", core.BaseDIEIRB()},
	}
}

// ReuseSourceConfigs returns the reuse-source extension matrix: the
// baseline DIE-IRB, DIE-IRB with squash reuse, the prior-work SIE-IRB,
// and SIE-IRB with Sn+d-style dependence chaining (the "collapse true
// dependencies" capability instruction reuse was first proposed for).
func ReuseSourceConfigs() []NamedConfig {
	sq := core.BaseDIEIRB()
	sq.IRBSquashReuse = true
	sie := core.BaseSIE()
	sie.Mode = core.SIEIRB
	chain := sie
	chain.IRBChaining = true
	return []NamedConfig{
		{"DIE-IRB", core.BaseDIEIRB()},
		{"DIE-IRB+squash", sq},
		{"SIE-IRB", sie},
		{"SIE-IRB+chain", chain},
	}
}
