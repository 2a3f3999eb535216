package workload

import (
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/isa"
	"repro/internal/program"
)

func testProfile() Profile {
	p, ok := ByName("gzip")
	if !ok {
		panic("gzip profile missing")
	}
	return p.WithIters(20_000)
}

func TestAllProfilesGenerateAndRun(t *testing.T) {
	for _, p := range SPEC2000() {
		p := p.WithIters(30_000)
		t.Run(p.Name, func(t *testing.T) {
			prog, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			m := fsim.New(prog)
			n, err := m.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Halted {
				t.Fatalf("%s did not halt within 5M instructions", p.Name)
			}
			// WithIters targets ~30k dynamic instructions; allow a
			// generous band since branches skip work.
			if n < 10_000 || n > 200_000 {
				t.Errorf("%s ran %d instructions, want ~30k", p.Name, n)
			}
		})
	}
}

func TestProfilesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range SPEC2000() {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	if len(seen) != 12 {
		t.Errorf("got %d profiles, want 12", len(seen))
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("art"); !ok {
		t.Error("art missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("found nonexistent profile")
	}
}

func TestByNames(t *testing.T) {
	all, err := ByNames(nil)
	if err != nil || len(all) != 12 {
		t.Fatalf("no names: %d profiles, %v; want the 12-benchmark suite", len(all), err)
	}
	two, err := ByNames([]string{"mesa", "gzip"})
	if err != nil || len(two) != 2 || two[0].Name != "mesa" || two[1].Name != "gzip" {
		t.Fatalf("ByNames(mesa, gzip) = %v, %v", two, err)
	}
	if _, err := ByNames([]string{"gzip", "nonesuch"}); err == nil ||
		!strings.Contains(err.Error(), `"nonesuch"`) {
		t.Errorf("unknown benchmark error = %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := testProfile()
	a := mustGenerate(p)
	b := mustGenerate(p)
	if len(a.Code) != len(b.Code) {
		t.Fatalf("code lengths differ: %d vs %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Code[i], b.Code[i])
		}
	}
	ma, mb := fsim.New(a), fsim.New(b)
	ma.Run(1_000_000)
	mb.Run(1_000_000)
	if ma.Count != mb.Count || ma.Regs != mb.Regs {
		t.Error("two generations of the same profile executed differently")
	}
}

func TestSeedChangesProgram(t *testing.T) {
	p := testProfile()
	a := mustGenerate(p)
	p.Seed++
	b := mustGenerate(p)
	same := len(a.Code) == len(b.Code)
	if same {
		identical := true
		for i := range a.Code {
			if a.Code[i] != b.Code[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical programs")
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := testProfile()
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Iters = 0 },
		func(p *Profile) { p.Unroll = 0 },
		func(p *Profile) { p.ArrayWords = 100 },
		func(p *Profile) { p.ArrayWords = 8 },
		func(p *Profile) { p.ValueRange = 0 },
		func(p *Profile) { p.ChainDepth = 0 },
		func(p *Profile) { p.Stride = -2 },
		func(p *Profile) { p.Loads = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestInstructionMixTracksProfile checks that FP profiles emit FP work and
// pointer-chase profiles emit dependent loads.
func TestInstructionMixTracksProfile(t *testing.T) {
	counts := func(name string) map[isa.FUClass]int {
		p, _ := ByName(name)
		prog := mustGenerate(p.WithIters(1000))
		m := map[isa.FUClass]int{}
		for _, in := range prog.Code {
			m[in.Op.Info().Class]++
		}
		return m
	}
	if counts("ammp")[isa.FUFPMult] == 0 {
		t.Error("ammp has no FP mult/div/sqrt instructions")
	}
	if counts("gzip")[isa.FUFPMult] != 0 {
		t.Error("gzip (integer benchmark) emits FP mult work")
	}
}

// TestValueLocalityDrivesOperandRepetition verifies the central premise:
// programs with a small ValueRange re-execute the same (pc, operands)
// tuples far more often than programs with a large one.
func TestValueLocalityDrivesOperandRepetition(t *testing.T) {
	repRate := func(valueRange uint64) float64 {
		p := testProfile()
		p.ValueRange = valueRange
		prog := mustGenerate(p.WithIters(40_000))
		m := fsim.New(prog)
		seen := map[[3]uint64]bool{}
		var repeats, total int
		var r fsim.Retired
		for !m.Halted {
			if err := m.Step(&r); err != nil {
				t.Fatal(err)
			}
			oi := r.Instr.Op.Info()
			if !oi.HasDest || oi.IsMem() {
				continue
			}
			key := [3]uint64{r.PC, r.Src1, r.Src2}
			if seen[key] {
				repeats++
			}
			seen[key] = true
			total++
			if total > 3_000_000 {
				t.Fatal("runaway execution")
			}
		}
		return float64(repeats) / float64(total)
	}
	local := repRate(16)
	diffuse := repRate(1 << 30)
	if local <= diffuse {
		t.Errorf("value locality has no effect: local=%.3f diffuse=%.3f", local, diffuse)
	}
	if local < 0.3 {
		t.Errorf("small-alphabet repetition rate %.3f unexpectedly low", local)
	}
}

func TestWithIters(t *testing.T) {
	p := testProfile()
	prog := mustGenerate(p)
	m := fsim.New(prog)
	n, err := m.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5_000 || n > 100_000 {
		t.Errorf("WithIters(20k) ran %d instructions", n)
	}
}

func TestWorkingSetTracksArrayWords(t *testing.T) {
	small := testProfile()
	small.ArrayWords = 1 << 8
	large := testProfile()
	large.ArrayWords = 1 << 14
	// The data segment footprint should scale with ArrayWords.
	ps := mustGenerate(small)
	pl := mustGenerate(large)
	if len(pl.Data) <= len(ps.Data) {
		t.Errorf("working set did not grow: %d vs %d words", len(ps.Data), len(pl.Data))
	}
}

func TestSPEC95Suite(t *testing.T) {
	profiles := SPEC95()
	if len(profiles) != 8 {
		t.Fatalf("SPEC95 has %d profiles, want 8", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		prog, err := Generate(p.WithIters(20_000))
		if err != nil {
			t.Fatal(err)
		}
		m := fsim.New(prog)
		if _, err := m.Run(3_000_000); err != nil {
			t.Fatal(err)
		}
		if !m.Halted {
			t.Errorf("%s did not halt", p.Name)
		}
	}
	if _, ok := ByName95("swim"); !ok {
		t.Error("ByName95 missed swim")
	}
	if _, ok := ByName95("gzip"); ok {
		t.Error("ByName95 found a SPEC2000 profile")
	}
}

// mustGenerate is the test-side Generate that panics on error.
func mustGenerate(p Profile) *program.Program {
	prog, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return prog
}
