// Package fault implements transient-fault injection for validating the
// redundancy claims of the DIE-IRB paper's Section 3.4. It provides a
// deterministic injector that strikes single-bit faults at the three
// locations the paper analyzes:
//
//   - functional unit outputs (a particle strike in combinational logic),
//   - operand forwarding paths (a corrupted bypass value), and
//   - the IRB storage array (a strike after an entry was inserted).
//
// The experiments measure detection coverage: a fault is *detected* when
// the commit-time check of the primary/duplicate pair sees differing
// outcome signatures, and *masked* when the corruption never produces an
// architecturally visible difference (for example, a corrupted IRB operand
// field merely fails the reuse test, which is harmless — the duplicate
// executes on a functional unit instead).
package fault

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/irb"
)

// Site selects where faults strike.
type Site string

const (
	// FU corrupts the outcome of a randomly chosen functional unit
	// execution (primary or duplicate copy with equal probability).
	FU Site = "fu"
	// Forward corrupts a source operand of a randomly chosen
	// instruction copy as it is captured into the issue window.
	Forward Site = "forward"
	// IRBResult flips a bit of a just-inserted reuse-buffer entry's
	// result field.
	IRBResult Site = "irb-result"
	// IRBOperand flips a bit of a just-inserted entry's stored operand,
	// which should fail the reuse test (a harmless outcome).
	IRBOperand Site = "irb-operand"
)

// Sites lists all injection sites.
func Sites() []Site { return []Site{FU, Forward, IRBResult, IRBOperand} }

// Config parameterizes an injection campaign. Its JSON form is the fault
// spec of a run request and of a fabric cell on the wire.
type Config struct {
	Site Site `json:"site"` // fu, forward, irb-result, irb-operand
	// Rate is the per-opportunity injection probability. Keep it small
	// (1e-4 .. 1e-3) so at most a few faults are in flight at once.
	Rate float64 `json:"rate"`
	// Seed makes the campaign reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// MaxFaults caps the campaign (0 = unlimited).
	MaxFaults uint64 `json:"max_faults,omitempty"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Site {
	case FU, Forward, IRBResult, IRBOperand:
	default:
		return fmt.Errorf("fault: unknown site %q", c.Site)
	}
	if c.Rate <= 0 || c.Rate > 1 {
		return fmt.Errorf("fault: rate %g out of (0,1]", c.Rate)
	}
	return nil
}

// Injector implements core.FaultInjector. It decides injection points with
// a seeded PRNG, so identical runs inject identical faults. It models the
// single-fault-at-a-time assumption of the paper's Section 3.4: each
// architected instruction is struck at most once, so the two copies of a
// DIE pair (or a pair and its post-recovery re-execution) are never both
// corrupted. A simultaneous identical strike on both copies is a
// common-mode fault outside any temporal-redundancy scheme's coverage —
// admitting it would only manufacture silent escapes the paper's fault
// model excludes. Wrong-path copies carry sequence number 0 and are exempt
// from the bookkeeping: they are squashed before the check regardless.
type Injector struct {
	cfg    Config
	pcg    *rand.PCG           // the stream rng draws from; quiet scans it directly
	rng    *rand.Rand          // reads pcg
	struck map[uint64]struct{} // architected seqs already hit

	// Injected counts faults actually applied.
	Injected uint64
}

// New builds an injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pcg, rng := newRNG(cfg.Seed)
	return &Injector{
		cfg:    cfg,
		pcg:    pcg,
		rng:    rng,
		struck: make(map[uint64]struct{}),
	}, nil
}

// newRNG builds the injector's seeded PRNG; Reset rebuilds the identical
// stream from the same seed.
func newRNG(seed uint64) (*rand.PCG, *rand.Rand) {
	pcg := rand.NewPCG(seed, seed^0xdeadbeefcafef00d)
	return pcg, rand.New(pcg)
}

// InjectedCount implements core.BatchableInjector.
func (i *Injector) InjectedCount() uint64 { return i.Injected }

// Reset implements core.BatchableInjector: it restores the injector to its
// freshly-constructed state — reseeded PRNG, cleared strike bookkeeping,
// zero fault count — so the next run it steers is bit-identical to one
// steered by a fresh New(cfg) injector.
func (i *Injector) Reset() {
	i.pcg, i.rng = newRNG(i.cfg.Seed)
	clear(i.struck)
	i.Injected = 0
}

// suppressed reports whether the instruction with the given architected
// sequence number was already struck; record marks it after an applied
// strike. Kept separate so a declined PRNG draw does not burn the
// instruction's eligibility.
func (i *Injector) suppressed(seq uint64) bool {
	if seq == 0 {
		return false // wrong-path: no pair check to evade
	}
	_, hit := i.struck[seq]
	return hit
}

func (i *Injector) record(seq uint64) {
	if seq != 0 {
		i.struck[seq] = struct{}{}
	}
}

func (i *Injector) fire() bool {
	if i.cfg.MaxFaults > 0 && i.Injected >= i.cfg.MaxFaults {
		return false
	}
	if i.rng.Float64() >= i.cfg.Rate {
		return false
	}
	i.Injected++
	return true
}

// quiet advances the PRNG past up to n opportunities of the injector's
// own site at which fire would draw and decline, and returns how many it
// passed. The first draw that would fire is put back, so the next real
// call draws it again and fires. Before the first fire this is exact:
// struck is empty and MaxFaults cannot bind, so every opportunity of the
// site, whatever its arguments, draws one Float64 and does nothing else.
// Once the injector has fired, quiet passes nothing and every opportunity
// must be offered for real.
func (i *Injector) quiet(n uint64) uint64 {
	if i.Injected > 0 {
		return 0
	}
	for k := uint64(0); k < n; k++ {
		prev := *i.pcg
		// fire's decision: rand.Rand.Float64 of the same draw < Rate.
		if float64(i.pcg.Uint64()<<11>>11)/(1<<53) < i.cfg.Rate {
			*i.pcg = prev
			return k
		}
	}
	return n
}

// QuietFU implements core.BatchableInjector. Only an FU-site injector
// draws at an FU opportunity; any other passes all n.
func (i *Injector) QuietFU(n uint64) uint64 {
	if i.cfg.Site != FU {
		return n
	}
	return i.quiet(n)
}

// QuietOperand implements core.BatchableInjector; see QuietFU.
func (i *Injector) QuietOperand(n uint64) uint64 {
	if i.cfg.Site != Forward {
		return n
	}
	return i.quiet(n)
}

// QuietIRBInsert implements core.BatchableInjector; see QuietFU.
func (i *Injector) QuietIRBInsert(n uint64) uint64 {
	if i.cfg.Site != IRBResult && i.cfg.Site != IRBOperand {
		return n
	}
	return i.quiet(n)
}

// FUResult implements core.FaultInjector.
func (i *Injector) FUResult(seq, pc uint64, dup bool, sig uint64) uint64 {
	if i.cfg.Site != FU || i.suppressed(seq) || !i.fire() {
		return sig
	}
	i.record(seq)
	return sig ^ 1<<i.rng.UintN(64)
}

// Operand implements core.FaultInjector.
func (i *Injector) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 {
	if i.cfg.Site != Forward || i.suppressed(seq) || !i.fire() {
		return val
	}
	i.record(seq)
	return val ^ 1<<i.rng.UintN(64)
}

// AfterIRBInsert implements core.FaultInjector.
func (i *Injector) AfterIRBInsert(pc uint64, b *irb.IRB) {
	switch i.cfg.Site {
	case IRBResult:
		if i.fire() {
			b.CorruptResult(pc, uint(i.rng.UintN(64)))
		}
	case IRBOperand:
		if i.fire() {
			b.CorruptOperand(pc, i.rng.UintN(2) == 0, uint(i.rng.UintN(64)))
		}
	}
}

// Spec returns the campaign configuration the injector was built from.
// The fabric uses it to ship a cell's fault campaign over the wire: a
// worker rebuilds an equivalent fresh injector with New(Spec()), which
// steers an identical run because injection decisions are drawn from the
// seeded PRNG only.
func (i *Injector) Spec() Config { return i.cfg }

// Fingerprint identifies the campaign spec for result caching (it
// satisfies the runner's Fingerprinter interface): two freshly built
// injectors with equal fingerprints corrupt identical runs identically,
// because injection decisions are drawn from the seeded PRNG only. The
// fingerprint does not capture consumed PRNG or strike state, so reusing
// one injector across runs breaks the equivalence — build a fresh injector
// per run, as the fault experiments and the serving layer do.
func (i *Injector) Fingerprint() string {
	return fmt.Sprintf("fault.Injector{site=%s rate=%g seed=%d max=%d}",
		i.cfg.Site, i.cfg.Rate, i.cfg.Seed, i.cfg.MaxFaults)
}

// Persistent is a rate-1 injector pinned to one static PC: every
// opportunity at that PC is struck with the same bit flip, modeling a
// stuck-at (hard) fault rather than a transient. Recovery re-executes the
// instruction into the same broken path each time, so the core's bounded
// retry budget must trip and escalate — the escalation and IRB-scrubbing
// tests are its main users. MaxFaults bounds the campaign (0 = unlimited):
// MaxFaults=1 turns it into a deterministic single-shot transient.
type Persistent struct {
	Site  Site
	PC    uint64
	Dup   bool // strike the duplicate copy instead of the primary (FU/Forward)
	Which int  // operand to corrupt for Forward: 1 or 2
	Bit   uint // bit to flip (0..63)

	MaxFaults uint64 // 0 = unlimited
	// Injected counts faults actually applied.
	Injected uint64
}

// InjectedCount implements core.BatchableInjector.
func (p *Persistent) InjectedCount() uint64 { return p.Injected }

// Reset implements core.BatchableInjector. A stuck-at fault has no PRNG or
// per-instruction bookkeeping; only the applied-fault count is consumed
// state.
func (p *Persistent) Reset() { p.Injected = 0 }

// QuietFU implements core.BatchableInjector. A stuck-at fault fires by
// PC, which a skipped opportunity does not show, so at its own site it
// passes nothing; elsewhere it never fires and passes all n.
func (p *Persistent) QuietFU(n uint64) uint64 {
	if p.Site == FU {
		return 0
	}
	return n
}

// QuietOperand implements core.BatchableInjector; see QuietFU.
func (p *Persistent) QuietOperand(n uint64) uint64 {
	if p.Site == Forward {
		return 0
	}
	return n
}

// QuietIRBInsert implements core.BatchableInjector; see QuietFU.
func (p *Persistent) QuietIRBInsert(n uint64) uint64 {
	if p.Site == IRBResult || p.Site == IRBOperand {
		return 0
	}
	return n
}

func (p *Persistent) fire() bool {
	if p.MaxFaults > 0 && p.Injected >= p.MaxFaults {
		return false
	}
	p.Injected++
	return true
}

// FUResult implements core.FaultInjector.
func (p *Persistent) FUResult(seq, pc uint64, dup bool, sig uint64) uint64 {
	if p.Site != FU || pc != p.PC || dup != p.Dup || !p.fire() {
		return sig
	}
	return sig ^ 1<<(p.Bit&63)
}

// Operand implements core.FaultInjector.
func (p *Persistent) Operand(seq, pc uint64, dup bool, which int, val uint64) uint64 {
	if p.Site != Forward || pc != p.PC || dup != p.Dup || which != p.Which || !p.fire() {
		return val
	}
	return val ^ 1<<(p.Bit&63)
}

// AfterIRBInsert implements core.FaultInjector.
func (p *Persistent) AfterIRBInsert(pc uint64, b *irb.IRB) {
	if pc != p.PC {
		return
	}
	switch p.Site {
	case IRBResult:
		if p.fire() {
			b.CorruptResult(pc, p.Bit)
		}
	case IRBOperand:
		if p.fire() {
			b.CorruptOperand(pc, p.Which != 2, p.Bit)
		}
	}
}

// Fingerprint identifies the stuck-at fault's spec for result caching; the
// same fresh-per-run caveat as (*Injector).Fingerprint applies, since
// Injected is consumed state.
func (p *Persistent) Fingerprint() string {
	return fmt.Sprintf("fault.Persistent{site=%s pc=%d dup=%t which=%d bit=%d max=%d}",
		p.Site, p.PC, p.Dup, p.Which, p.Bit, p.MaxFaults)
}
