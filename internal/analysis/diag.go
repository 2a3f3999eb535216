package analysis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/program"
)

// Kind classifies a diagnostic.
type Kind string

// The diagnostic catalog. Program.Validate already rejects malformed
// instructions and out-of-range direct targets; these checks cover the
// well-formedness hazards it cannot see without a CFG.
const (
	// KindReadBeforeWrite: a register can be read before any write on
	// some path from entry. The machine defines such reads (registers
	// start at zero), so this is almost always a generator bug.
	KindReadBeforeWrite Kind = "read-before-write"
	// KindUnreachable: a block containing real (non-NOP) instructions
	// can never execute. NOP-only blocks are exempt: generators emit
	// NOP padding for code placement (e.g. IRB-set alignment).
	KindUnreachable Kind = "unreachable-code"
	// KindZeroRegWrite: a computational result is written to ZeroReg and
	// silently discarded. The link-discarding JALR return idiom is
	// exempt.
	KindZeroRegWrite Kind = "zeroreg-write"
	// KindMisalignedData: a memory access whose address is statically
	// resolvable is not 8-byte aligned. The hardware masks addresses to
	// the access size (isa.EffAddr), so the access silently truncates.
	KindMisalignedData Kind = "misaligned-address"
	// KindOutOfSegment: a statically resolvable access lands outside the
	// initialized data segment; loads there read zeros.
	KindOutOfSegment Kind = "out-of-segment"
	// KindFallthrough: execution can run off the end of the code
	// segment, where fetches return NOPs forever.
	KindFallthrough Kind = "fallthrough-off-code"
)

// Diagnostic is one structured finding, usable as an error value (it is
// what the sim.RunContext preflight returns for an ill-formed program).
type Diagnostic struct {
	Program string
	Kind    Kind
	PC      int64 // instruction index, -1 for program-level findings
	Detail  string

	instrStr string // rendered instruction at PC, for Error
}

// Error implements error.
func (d *Diagnostic) Error() string {
	if d.PC < 0 {
		return fmt.Sprintf("%s: [%s] %s", d.Program, d.Kind, d.Detail)
	}
	return fmt.Sprintf("%s: pc=%d (%s): [%s] %s",
		d.Program, d.PC, d.instrStr, d.Kind, d.Detail)
}

// Report is the full result of analyzing one program.
type Report struct {
	Prog       *program.Program
	CFG        *CFG
	Liveness   *Liveness
	Diags      []Diagnostic
	Prediction Prediction
}

// Analyze runs every pass over p and returns the combined report. It
// assumes p passed Program.Validate; call Check for the validating entry
// point.
func Analyze(p *program.Program) *Report {
	return AnalyzeConfig(p, DefaultPredictorConfig())
}

// AnalyzeConfig is Analyze with an explicit predictor configuration.
func AnalyzeConfig(p *program.Program, pc PredictorConfig) *Report {
	r := diagnose(p)
	r.Prediction = predict(r.CFG, pc)
	return r
}

// diagnose runs every pass except the reuse prediction, which is left
// zero.
func diagnose(p *program.Program) *Report {
	g := BuildCFG(p)
	lv := ComputeLiveness(g)
	r := &Report{
		Prog:     p,
		CFG:      g,
		Liveness: lv,
	}
	r.checkReadBeforeWrite()
	r.checkUnreachable()
	r.checkZeroRegWrites()
	r.checkDataAddresses()
	r.checkFallthrough()
	sort.SliceStable(r.Diags, func(i, j int) bool { return r.Diags[i].PC < r.Diags[j].PC })
	return r
}

// Check validates p structurally (Program.Validate) and then analyzes it,
// returning nil for a clean program or an error carrying every finding;
// the first finding is exposed as a *Diagnostic via errors.As.
func Check(p *program.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	// The reuse prediction plays no part in the verdict, and its value
	// tally allocates in proportion to the data segment, so the
	// simulation preflight skips it.
	r := diagnose(p)
	if len(r.Diags) == 0 {
		return nil
	}
	errs := make([]error, len(r.Diags))
	for i := range r.Diags {
		errs[i] = &r.Diags[i]
	}
	return errors.Join(errs...)
}

func (r *Report) addDiag(kind Kind, pc int64, format string, args ...any) {
	d := Diagnostic{Program: r.Prog.Name, Kind: kind, PC: pc,
		Detail: fmt.Sprintf(format, args...)}
	if pc >= 0 {
		d.instrStr = r.Prog.Code[pc].String()
	}
	r.Diags = append(r.Diags, d)
}

func (r *Report) checkReadBeforeWrite() {
	var written regSet // registers some reachable instruction writes
	for _, b := range r.CFG.Blocks {
		if b.Reachable {
			written |= r.Liveness.kill[b.ID]
		}
	}
	for _, reg := range r.Liveness.EntryLive().regs() {
		pc, ok := r.Liveness.firstExposedUse(reg)
		if !ok {
			continue
		}
		if !written.has(reg) {
			r.addDiag(KindReadBeforeWrite, int64(pc),
				"%s is read but never written anywhere in the program", reg)
		} else {
			r.addDiag(KindReadBeforeWrite, int64(pc),
				"%s can be read before its first write", reg)
		}
	}
}

func (r *Report) checkUnreachable() {
	for _, b := range r.CFG.Blocks {
		if b.Reachable {
			continue
		}
		// NOP-only blocks are placement padding, not dead code.
		first := int64(-1)
		for pc := b.Start; pc < b.End; pc++ {
			if r.Prog.Code[pc].Op != isa.OpNop {
				first = int64(pc)
				break
			}
		}
		if first >= 0 {
			r.addDiag(KindUnreachable, first,
				"unreachable block [%d,%d)", b.Start, b.End)
		}
	}
}

func (r *Report) checkZeroRegWrites() {
	for _, b := range r.CFG.Blocks {
		if !b.Reachable {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := r.Prog.Code[pc]
			d, ok := in.DestReg()
			if !ok || d != isa.ZeroReg {
				continue
			}
			if in.Op.Info().IsCtrl() {
				// jalr r0, rs is the link-discarding return/jump
				// idiom; call r0 likewise discards the link.
				continue
			}
			r.addDiag(KindZeroRegWrite, int64(pc),
				"result written to %s is discarded", isa.Reg(isa.ZeroReg))
		}
	}
}

// checkDataAddresses runs a block-local constant propagation and checks
// every memory access whose effective address it can resolve. Registers
// are unknown at block entry (all-zero at the program entry block, the
// architectural initial state), so only addresses materialized within the
// same block — the LoadConst idiom — are checked. The check is therefore
// sound: it only reports accesses whose address is certain.
func (r *Report) checkDataAddresses() {
	extent := dataExtent(r.Prog)
	for _, b := range r.CFG.Blocks {
		if !b.Reachable {
			continue
		}
		var known regSet
		var val [isa.NumRegs]uint64
		if b.ID == r.CFG.entry && r.Prog.Entry == b.Start {
			known = ^regSet(0) // architectural reset: every register is 0
		}
		known.add(isa.ZeroReg) // hardwired zero is always known
		for pc := b.Start; pc < b.End; pc++ {
			in := r.Prog.Code[pc]
			oi := in.Op.Info()
			if oi.IsMem() && known.has(in.Src1) {
				raw := val[in.Src1] + uint64(int64(in.Imm))
				if raw%8 != 0 {
					r.addDiag(KindMisalignedData, int64(pc),
						"address %#x is not 8-byte aligned (hardware truncates to %#x)",
						raw, isa.EffAddr(val[in.Src1], in.Imm))
				} else if raw >= extent {
					r.addDiag(KindOutOfSegment, int64(pc),
						"address %#x is outside the initialized data segment [0,%#x)",
						raw, extent)
				}
			}
			d, hasDest := in.DestReg()
			if !hasDest {
				continue
			}
			switch {
			case d == isa.ZeroReg:
				// Writes to r0 don't change its known zero.
			case oi.IsLoad:
				known = known.without(d)
			case oi.UsesSrc1 && !known.has(in.Src1),
				oi.UsesSrc2 && !known.has(in.Src2):
				known = known.without(d)
			default:
				val[d] = isa.Exec(in.Op, val[in.Src1], val[in.Src2], in.Imm, pc)
				known.add(d)
			}
		}
	}
}

// dataExtent returns one past the highest initialized data byte, rounded
// to words; programs with no data get a zero-sized segment.
func dataExtent(p *program.Program) uint64 {
	if len(p.Data) == 0 {
		return 0
	}
	return p.DataBase + 8*uint64(len(p.Data))
}

func (r *Report) checkFallthrough() {
	n := uint64(len(r.Prog.Code))
	for _, b := range r.CFG.Blocks {
		if !b.Reachable || b.End != n {
			continue
		}
		if r.Prog.Code[b.End-1].FallsThrough() {
			r.addDiag(KindFallthrough, int64(b.End-1),
				"execution can fall through the end of the code segment")
		}
	}
}
