package workload

import "fmt"

// The twelve SPEC2000 applications of the paper's evaluation, modeled as
// synthetic profiles. The knob settings encode each application's published
// character (instruction mix, branchiness, memory behaviour) and a value-
// locality setting chosen so the suite spans the IPC and reuse ranges the
// paper reports: SIE IPC from ~0.7 (art) upward, DIE loss from ~1% (ammp)
// to ~43% (art), and "fairly good" 1024-entry IRB hit rates with a strong
// per-application spread.
//
// Integer applications: gzip, vpr, gcc, mcf, parser, bzip2, twolf, vortex.
// Floating point applications: art, equake, ammp, mesa.

// SPEC2000 returns the twelve profiles in the paper's presentation order.
func SPEC2000() []Profile {
	return []Profile{
		// gzip: tight integer compression loops over a modest window;
		// the inner match loop re-reads window state set per input
		// block, giving good consecutive reuse.
		{
			Name: "gzip", Seed: 101, Iters: 0, InnerIters: 24, Unroll: 4,
			InvariantOps: 14, IntOps: 8, Loads: 3, Stores: 1,
			CondBranches: 2, ArrayWords: 1 << 12, Stride: 1,
			ValueRange: 64, ChainDepth: 2,
		},
		// vpr: placement/routing with data-dependent control and
		// scattered small-structure accesses; moderate reuse.
		{
			Name: "vpr", Seed: 102, Iters: 0, InnerIters: 8, Unroll: 2,
			InvariantOps: 9, IntOps: 8, MulOps: 1, Loads: 3, Stores: 1,
			CondBranches: 3, ArrayWords: 1 << 12, Stride: 0,
			ValueRange: 512, ChainDepth: 2,
		},
		// gcc: very large static code footprint (pressures the
		// 1024-entry direct-mapped IRB with capacity/conflict misses),
		// branchy, moderate reuse.
		{
			Name: "gcc", Seed: 103, Iters: 0, InnerIters: 6, Unroll: 40,
			InvariantOps: 8, IntOps: 8, Loads: 3, Stores: 1,
			CondBranches: 3, ArrayWords: 1 << 11, Stride: 2,
			ValueRange: 256, ChainDepth: 2, Calls: true,
		},
		// mcf: pointer-chasing network simplex; memory-bound with low
		// ILP and poor value locality on the chased addresses.
		{
			Name: "mcf", Seed: 104, Iters: 0, InnerIters: 2, Unroll: 2,
			InvariantOps: 2, IntOps: 6, Loads: 4, Stores: 1,
			CondBranches: 2, ArrayWords: 1 << 16, Stride: -1,
			ValueRange: 1 << 30, ChainDepth: 3,
		},
		// parser: dictionary word chasing with many calls and branches;
		// per-sentence state gives decent inner reuse.
		{
			Name: "parser", Seed: 105, Iters: 0, InnerIters: 8, Unroll: 6,
			InvariantOps: 11, IntOps: 7, Loads: 3, Stores: 1,
			CondBranches: 3, ArrayWords: 1 << 12, Stride: 0,
			ValueRange: 128, ChainDepth: 2, Calls: true, AliasLeaf: true,
		},
		// bzip2: block-sort compression; long counting loops over a
		// small alphabet — the best integer reuse in the suite.
		{
			Name: "bzip2", Seed: 106, Iters: 0, InnerIters: 32, Unroll: 3,
			InvariantOps: 16, IntOps: 10, MulOps: 1, Loads: 2, Stores: 1,
			CondBranches: 1, ArrayWords: 1 << 12, Stride: 1,
			ValueRange: 16, ChainDepth: 2,
		},
		// twolf: place-and-route with random small-table lookups and
		// unpredictable branches; little consecutive reuse.
		{
			Name: "twolf", Seed: 107, Iters: 0, InnerIters: 4, Unroll: 5,
			InvariantOps: 6, IntOps: 10, MulOps: 2, Loads: 3,
			Stores: 1, CondBranches: 3, ArrayWords: 1 << 12, Stride: 0,
			ValueRange: 1024, ChainDepth: 3,
		},
		// vortex: object database; call/return and store heavy with
		// regular access patterns over per-object state.
		{
			Name: "vortex", Seed: 108, Iters: 0, InnerIters: 10, Unroll: 8,
			InvariantOps: 11, IntOps: 7, Loads: 3, Stores: 2,
			CondBranches: 2, ArrayWords: 1 << 12, Stride: 2,
			ValueRange: 96, ChainDepth: 2, Calls: true,
		},
		// art: neural-network image recognition; FP over arrays that
		// thrash the caches — the paper's lowest-IPC application (SIE
		// 0.73, DIE 0.41) and the one that prefers a bigger RUU.
		{
			Name: "art", Seed: 109, Iters: 0, InnerIters: 4, Unroll: 2,
			InvariantOps: 4, IntOps: 4, FPAdds: 5, FPMuls: 4,
			Loads: 4, Stores: 1, CondBranches: 1,
			ArrayWords: 1 << 17, Stride: 0,
			ValueRange: 32, ChainDepth: 4,
		},
		// equake: seismic FEM; regular sparse-matrix FP add/multiply
		// sweeps with per-row invariants.
		{
			Name: "equake", Seed: 110, Iters: 0, InnerIters: 6, Unroll: 2,
			InvariantOps: 7, IntOps: 5, MulOps: 1, FPAdds: 6, FPMuls: 4,
			Loads: 3, Stores: 1, CondBranches: 1,
			ArrayWords: 1 << 12, Stride: 2,
			ValueRange: 48, ChainDepth: 2,
		},
		// ammp: molecular dynamics; serial pointer-linked neighbor
		// walks keep IPC memory-latency-bound, so the duplicate stream
		// slots into idle ALU cycles — DIE costs it almost nothing
		// (paper: ~1% loss).
		{
			Name: "ammp", Seed: 111, Iters: 0, InnerIters: 8, Unroll: 1,
			InvariantOps: 4, IntOps: 3, FPAdds: 2, FPMuls: 1, FPDivs: 1,
			Loads: 2, Stores: 1, CondBranches: 1,
			ArrayWords: 1 << 17, Stride: -1,
			ValueRange: 64, ChainDepth: 4,
		},
		// mesa: software 3D rendering; the same vertex transforms run
		// against fixed matrices — the best FP reuse in the suite.
		{
			Name: "mesa", Seed: 112, Iters: 0, InnerIters: 20, Unroll: 4,
			InvariantOps: 10, IntOps: 6, MulOps: 1, FPAdds: 4, FPMuls: 5,
			Loads: 3, Stores: 1, CondBranches: 1,
			ArrayWords: 1 << 10, Stride: 1,
			ValueRange: 8, ChainDepth: 2,
		},
	}
}

// ByName returns the named profile from SPEC2000, reporting whether it
// exists.
func ByName(name string) (Profile, bool) {
	for _, p := range SPEC2000() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ByNames resolves benchmark names to SPEC2000 profiles in the order
// named; no names selects the whole suite.
func ByNames(names []string) ([]Profile, error) {
	if len(names) == 0 {
		return SPEC2000(), nil
	}
	out := make([]Profile, 0, len(names))
	for _, name := range names {
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (want one of the SPEC2000 profile names)", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// WithIters returns p sized to run for roughly n dynamic instructions.
func (p Profile) WithIters(n uint64) Profile {
	// Estimate the per-iteration dynamic length from the block shape:
	// index update (~4), loads (2 each), int/fp ops, branches (~3 each
	// counting the skipped block half the time), stores (2 each), call
	// overhead (4), plus the loop bookkeeping.
	perBlock := 4 + 2*p.Loads + p.InvariantOps + p.IntOps + p.MulOps + 2*p.DivOps +
		4 + p.FPAdds + p.FPMuls + p.FPDivs + 3*p.CondBranches + 2*p.Stores
	if p.Calls {
		perBlock += 4
	}
	perOuter := uint64(8 + p.InnerIters*(perBlock*p.Unroll+2) + 2)
	// Overshoot by 2x: data-dependent branches skip work, and a program
	// that outlives the measurement budget merely gets cut by MaxInsns,
	// while one that halts early invalidates the run.
	p.Iters = int(2*n/perOuter) + 1
	return p
}
