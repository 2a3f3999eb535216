// Command irbstat characterizes the instruction-reuse behaviour of the
// workloads independently of the pipeline: it runs each program through
// the functional simulator against a standalone IRB model and reports, per
// instruction class, how often a dynamic instruction would hit the buffer
// with matching operands. This is the workload-side view of the reuse the
// DIE-IRB core exploits, useful when tuning profiles or sizing the buffer.
//
// Usage:
//
//	irbstat                      # all benchmarks, 1024-entry DM buffer
//	irbstat -entries 4096 -assoc 4
//	irbstat -bench gcc -insns 1000000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	entries := flag.Int("entries", 1024, "IRB entries")
	assoc := flag.Int("assoc", 1, "IRB associativity")
	victim := flag.Int("victim", 0, "victim buffer entries")
	insns := cliutil.Insns(flag.CommandLine, sim.DefaultInsns)
	bench := cliutil.Bench(flag.CommandLine, "", "comma-separated benchmark subset")
	flag.Parse()

	if err := run(*entries, *assoc, *victim, *insns, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "irbstat:", err)
		os.Exit(1)
	}
}

func run(entries, assoc, victim int, insns uint64, bench string) error {
	profiles, err := workload.ByNames(cliutil.SplitBenchmarks(bench))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		fmt.Sprintf("Standalone reuse characterization (%d-entry %d-way IRB, %d victim)",
			entries, assoc, victim),
		"bench", "eligible", "pc-hit", "reuse", "int-alu", "mult/div", "fp", "mem-addr", "ctrl")
	for _, p := range profiles {
		row, err := characterize(p, entries, assoc, victim, insns)
		if err != nil {
			return err
		}
		t.AddRow(p.Name, row.eligible, row.rate(row.pcHits), row.rate(row.reuseHits),
			row.classRate(0), row.classRate(1), row.classRate(2), row.classRate(3), row.classRate(4))
	}
	fmt.Print(t)
	return nil
}

type counts struct {
	eligible  uint64
	pcHits    uint64
	reuseHits uint64
	// per-class eligible/reuse: int-alu, mult/div, fp, mem-addr, ctrl
	classElig  [5]uint64
	classReuse [5]uint64
}

func (c counts) rate(n uint64) float64 { return stats.Ratio(n, c.eligible) }

func (c counts) classRate(i int) float64 { return stats.Ratio(c.classReuse[i], c.classElig[i]) }

func classOf(in isa.Instr) int {
	oi := in.Op.Info()
	switch {
	case oi.IsMem():
		return 3
	case oi.IsCtrl():
		return 4
	case oi.Class == isa.FUIntMult:
		return 1
	case oi.Class == isa.FUFPAdd || oi.Class == isa.FUFPMult:
		return 2
	default:
		return 0
	}
}

// characterize replays p's dynamic stream against an IRB updated at every
// retired instruction (the single-stream equivalent of the core's
// commit-time updates).
func characterize(p workload.Profile, entries, assoc, victim int, insns uint64) (counts, error) {
	prog, err := sim.ProgramFor(p, sim.Options{Insns: insns})
	if err != nil {
		return counts{}, err
	}
	buf, err := irb.New(irb.Config{
		Entries: entries, Assoc: assoc, VictimEntries: victim,
		// Unconstrained ports: this tool measures the workload, not
		// the port arbitration.
		ReadPorts: 1 << 20, WritePorts: 1 << 20, LookupLat: 1,
	})
	if err != nil {
		return counts{}, err
	}
	m := fsim.New(prog)
	var c counts
	var r fsim.Retired
	for i := uint64(0); i < insns && !m.Halted; i++ {
		if err := m.Step(&r); err != nil {
			return counts{}, err
		}
		oi := r.Instr.Op.Info()
		if r.Instr.Op == isa.OpNop || r.Instr.Op == isa.OpHalt ||
			(!oi.HasDest && !oi.IsMem() && !oi.IsCtrl()) {
			continue
		}
		cl := classOf(r.Instr)
		c.eligible++
		c.classElig[cl]++
		e, hit := buf.Lookup(i, r.PC)
		reused := false
		if hit {
			c.pcHits++
			if e.Matches(r.Src1, r.Src2) {
				c.reuseHits++
				c.classReuse[cl]++
				reused = true
			}
		}
		if !reused {
			entry := irb.Entry{Src1: r.Src1, Src2: r.Src2, Result: r.Result, Taken: r.Taken}
			if oi.IsMem() {
				entry.Result = r.Addr
			} else if oi.IsCtrl() {
				entry.Result = r.NextPC
			}
			buf.Insert(i, r.PC, entry)
		}
	}
	return c, nil
}
