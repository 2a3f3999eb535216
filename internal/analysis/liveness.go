package analysis

import (
	"math/bits"

	"repro/internal/isa"
)

// regSet is a bitset over the unified 64-register namespace, which fits
// exactly in one machine word (isa.NumRegs == 64).
type regSet uint64

func (s regSet) has(r isa.Reg) bool       { return s&(1<<r) != 0 }
func (s *regSet) add(r isa.Reg)           { *s |= 1 << r }
func (s regSet) count() int               { return bits.OnesCount64(uint64(s)) }
func (s regSet) without(r isa.Reg) regSet { return s &^ (1 << r) }

// regs returns the members of the set in ascending order.
func (s regSet) regs() []isa.Reg {
	out := make([]isa.Reg, 0, s.count())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, isa.Reg(bits.TrailingZeros64(v)))
	}
	return out
}

// uses returns the set of registers the instruction reads, excluding
// ZeroReg (hardwired zero: reading it never depends on a prior write).
func uses(in isa.Instr) regSet {
	var s regSet
	srcs, n := in.SrcRegs()
	for i := 0; i < n; i++ {
		if srcs[i] != isa.ZeroReg {
			s.add(srcs[i])
		}
	}
	return s
}

// defs returns the set of registers the instruction writes. Writes to
// ZeroReg are architecturally discarded and therefore excluded — they do
// not satisfy a later read. A CALL's link write is its ordinary Dest.
func defs(in isa.Instr) regSet {
	if d, ok := in.DestReg(); ok && d != isa.ZeroReg {
		var s regSet
		s.add(d)
		return s
	}
	return 0
}

// Liveness holds the per-block dataflow solution.
type Liveness struct {
	cfg *CFG

	// LiveIn and LiveOut are indexed by block ID.
	LiveIn, LiveOut []regSet

	// gen is the upward-exposed use set (read before any write in the
	// block); kill is the block's def set.
	gen, kill []regSet
}

// ComputeLiveness solves backward liveness over the CFG's reachable
// blocks with the standard iterative fixpoint.
func ComputeLiveness(g *CFG) *Liveness {
	lv := &Liveness{
		cfg:     g,
		LiveIn:  make([]regSet, len(g.Blocks)),
		LiveOut: make([]regSet, len(g.Blocks)),
		gen:     make([]regSet, len(g.Blocks)),
		kill:    make([]regSet, len(g.Blocks)),
	}
	for _, b := range g.Blocks {
		var written regSet
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Prog.Code[pc]
			lv.gen[b.ID] |= uses(in) &^ written
			written |= defs(in)
		}
		lv.kill[b.ID] = written
	}
	for changed := true; changed; {
		changed = false
		// Iterate in reverse block order: backward problems converge
		// faster against the dominant fallthrough edges.
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			if !b.Reachable {
				continue
			}
			var out regSet
			for _, s := range b.Succs {
				out |= lv.LiveIn[s]
			}
			in := lv.gen[b.ID] | (out &^ lv.kill[b.ID])
			if out != lv.LiveOut[b.ID] || in != lv.LiveIn[b.ID] {
				lv.LiveOut[b.ID], lv.LiveIn[b.ID] = out, in
				changed = true
			}
		}
	}
	return lv
}

// EntryLive returns the registers that can be read before any write on
// some path from the program entry — the "reads of never-written
// register" candidates. ZeroReg is excluded by construction.
func (lv *Liveness) EntryLive() regSet {
	return lv.LiveIn[lv.cfg.entry]
}

// firstExposedUse returns the lowest reachable pc at which r is read
// before any prior write of r along that block's prefix, with r live-in —
// the pc a diagnostic should point at.
func (lv *Liveness) firstExposedUse(r isa.Reg) (uint64, bool) {
	for _, b := range lv.cfg.Blocks {
		if !b.Reachable || !lv.LiveIn[b.ID].has(r) {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := lv.cfg.Prog.Code[pc]
			if uses(in).has(r) {
				return pc, true
			}
			if defs(in).has(r) {
				break
			}
		}
	}
	return 0, false
}

// DefUse is the whole-program def-use index: for every register, the
// instruction indices that write it and those that read it, in reachable
// code.
type DefUse struct {
	Defs [isa.NumRegs][]uint64
	Uses [isa.NumRegs][]uint64
}

// ComputeDefUse builds the def-use index over the CFG's reachable blocks.
func ComputeDefUse(g *CFG) *DefUse {
	du := &DefUse{}
	for _, b := range g.Blocks {
		if !b.Reachable {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Prog.Code[pc]
			for _, r := range uses(in).regs() {
				du.Uses[r] = append(du.Uses[r], pc)
			}
			for _, r := range defs(in).regs() {
				du.Defs[r] = append(du.Defs[r], pc)
			}
		}
	}
	return du
}
