package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/program"
	"repro/internal/workload"
)

// commitStream runs prog on cfg and returns the full architectural commit
// stream plus the core's stats. Each record is also cross-checked against
// the functional oracle, so a divergence between two streams pinpoints
// which side broke rather than just that they differ.
func commitStream(t *testing.T, cfg Config, prog *program.Program) ([]fsim.Retired, Stats) {
	t.Helper()
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	oracle := fsim.New(prog)
	var stream []fsim.Retired
	c.OnCommit = func(rec *fsim.Retired) {
		var want fsim.Retired
		if oerr := oracle.Step(&want); oerr != nil {
			t.Fatalf("oracle: %v", oerr)
		}
		if rec.Seq != want.Seq || rec.PC != want.PC || rec.Result != want.Result ||
			rec.NextPC != want.NextPC || rec.Addr != want.Addr {
			t.Fatalf("commit diverged from oracle:\n got %+v\nwant %+v", rec, want)
		}
		stream = append(stream, *rec)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return stream, c.Stats
}

// alwaysMissIRB returns a DIE-IRB machine whose reuse buffer can never
// supply a hit: one entry, and a lookup latency the run length cannot
// reach, so the reuse test is never ready. The machine still pays all the
// IRB plumbing paths — lookup issue, update traffic, the reuse-test
// plumbing — making it a differential probe of the reuse path itself.
func alwaysMissIRB() Config {
	cfg := quicken(BaseDIEIRB())
	cfg.IRB.Entries = 1
	cfg.IRB.LookupLat = 1 << 30
	return cfg
}

// TestDifferentialAlwaysMissIRBMatchesDIE is the key safety property of
// the proposal: the IRB is purely a bandwidth optimization, so disabling
// every reuse opportunity must leave DIE-IRB architecturally
// indistinguishable from plain DIE — bit-identical commit streams and
// identical architected/copy commit counts. The subtests run in parallel
// so the property holds race-clean under both -parallel 1 and -parallel 8
// (the -j1/-j8 acceptance spellings).
func TestDifferentialAlwaysMissIRBMatchesDIE(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1001, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(seed)

			dieStream, dieStats := commitStream(t, quicken(BaseDIE()), prog)
			irbStream, irbStats := commitStream(t, alwaysMissIRB(), prog)

			if irbStats.IRBReuseHits != 0 {
				t.Fatalf("always-miss IRB produced %d reuse hits", irbStats.IRBReuseHits)
			}
			if dieStats.Committed != irbStats.Committed {
				t.Fatalf("committed: DIE %d, DIE-IRB %d", dieStats.Committed, irbStats.Committed)
			}
			if dieStats.CopiesCommitted != irbStats.CopiesCommitted {
				t.Fatalf("copies committed: DIE %d, DIE-IRB %d",
					dieStats.CopiesCommitted, irbStats.CopiesCommitted)
			}
			if len(dieStream) != len(irbStream) {
				t.Fatalf("stream length: DIE %d, DIE-IRB %d", len(dieStream), len(irbStream))
			}
			for i := range dieStream {
				if !reflect.DeepEqual(dieStream[i], irbStream[i]) {
					t.Fatalf("commit %d diverged:\n DIE     %+v\n DIE-IRB %+v",
						i, dieStream[i], irbStream[i])
				}
			}
		})
	}
}

// TestDifferentialRealIRBKeepsArchitecture strengthens the property in
// the other direction: with the paper's real IRB actually producing reuse
// hits, the architectural stream must STILL be bit-identical to DIE —
// reuse changes when results appear, never what they are.
func TestDifferentialRealIRBKeepsArchitecture(t *testing.T) {
	for _, seed := range []uint64{3, 21} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(seed)
			dieStream, _ := commitStream(t, quicken(BaseDIE()), prog)
			irbStream, _ := commitStream(t, quicken(BaseDIEIRB()), prog)
			if !reflect.DeepEqual(dieStream, irbStream) {
				t.Fatal("DIE-IRB with live reuse diverged architecturally from DIE")
			}
		})
	}
}

// TestDifferentialTRBMatchesIRBAndDIE is the trace-level generalization
// of the safety property: with zero faults, DIE-TRB's architectural
// commit stream must be bit-identical to both DIE-IRB's and plain DIE's
// — a window hit skips the duplicate stream past whole blocks, but never
// changes what commits. Architected counters (instructions, copies,
// memory operations) must match too; only the reuse/timing counters may
// differ. The subtests run in parallel so the property holds race-clean
// under both -parallel 1 and -parallel 8.
func TestDifferentialTRBMatchesIRBAndDIE(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1001, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(seed)

			dieStream, dieStats := commitStream(t, quicken(BaseDIE()), prog)
			irbStream, irbStats := commitStream(t, quicken(BaseDIEIRB()), prog)
			trbStream, trbStats := commitStream(t, quicken(baseConfig(DIETRB)), prog)

			if trbStats.FaultsDetected != 0 || trbStats.FaultsSilent != 0 {
				t.Fatalf("fault-free DIE-TRB reported faults: detected %d, silent %d",
					trbStats.FaultsDetected, trbStats.FaultsSilent)
			}
			for _, ref := range []struct {
				name   string
				stream []fsim.Retired
				stats  Stats
			}{{"DIE", dieStream, dieStats}, {"DIE-IRB", irbStream, irbStats}} {
				if ref.stats.Committed != trbStats.Committed {
					t.Fatalf("committed: %s %d, DIE-TRB %d",
						ref.name, ref.stats.Committed, trbStats.Committed)
				}
				if ref.stats.CopiesCommitted != trbStats.CopiesCommitted {
					t.Fatalf("copies committed: %s %d, DIE-TRB %d",
						ref.name, ref.stats.CopiesCommitted, trbStats.CopiesCommitted)
				}
				if ref.stats.Loads != trbStats.Loads || ref.stats.Stores != trbStats.Stores {
					t.Fatalf("memory ops: %s %d/%d, DIE-TRB %d/%d",
						ref.name, ref.stats.Loads, ref.stats.Stores,
						trbStats.Loads, trbStats.Stores)
				}
				if len(ref.stream) != len(trbStream) {
					t.Fatalf("stream length: %s %d, DIE-TRB %d",
						ref.name, len(ref.stream), len(trbStream))
				}
				for i := range ref.stream {
					if !reflect.DeepEqual(ref.stream[i], trbStream[i]) {
						t.Fatalf("commit %d diverged:\n %-7s %+v\n DIE-TRB %+v",
							i, ref.name, ref.stream[i], trbStream[i])
					}
				}
			}
		})
	}
}

// TestDifferentialTRBLoopWorkloadsNonVacuous pins the trace path down on
// the loop-heavy generated workloads, where windows actually hit: the
// TRB must serve a nonzero share of duplicates (so the stream identity
// above is not trivially exercised on a hitless machine) while the
// commit stream stays bit-identical to DIE-IRB's.
func TestDifferentialTRBLoopWorkloadsNonVacuous(t *testing.T) {
	for _, name := range []string{"gzip", "bzip2", "mesa"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("profile %q missing", name)
			}
			prog, err := workload.Generate(p.WithIters(8_000))
			if err != nil {
				t.Fatal(err)
			}
			irbStream, _ := commitStream(t, quicken(BaseDIEIRB()), prog)
			trbStream, trbStats := commitStream(t, quicken(baseConfig(DIETRB)), prog)
			if trbStats.TRBBlockHits == 0 || trbStats.TRBInstrSkipped == 0 {
				t.Fatalf("%s: TRB never served a window (hits %d, skipped %d) — differential is vacuous",
					name, trbStats.TRBBlockHits, trbStats.TRBInstrSkipped)
			}
			if !reflect.DeepEqual(irbStream, trbStream) {
				t.Fatal("DIE-TRB with live window hits diverged architecturally from DIE-IRB")
			}
		})
	}
}
