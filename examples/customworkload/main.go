// Custom workload: shows the two ways to bring your own program to the
// simulator — writing assembly directly with the program.Builder, and
// defining a new workload.Profile — then runs both through the DIE-IRB
// machine.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	handWritten()
	profileBased()
}

// handWritten assembles a dot-product kernel by hand and runs it on the
// DIE-IRB core directly, verifying against the functional simulator.
func handWritten() {
	b := program.NewBuilder("dotproduct")
	const n = 4096
	x := b.Array(n, func(i int) uint64 { return uint64(i % 7) })
	y := b.Array(n, func(i int) uint64 { return uint64(i % 5) })

	b.LoadConst(1, int64(x)) // r1 = &x
	b.LoadConst(2, int64(y)) // r2 = &y
	b.LoadConst(3, n)        // r3 = count
	b.Label("loop")
	b.EmitImm(isa.OpLoad, 4, 1, 0) // r4 = *x
	b.EmitImm(isa.OpLoad, 5, 2, 0) // r5 = *y
	b.EmitOp(isa.OpMul, 6, 4, 5)   // r6 = r4*r5
	b.EmitOp(isa.OpAdd, 7, 7, 6)   // r7 += r6
	b.EmitImm(isa.OpAddi, 1, 1, 8)
	b.EmitImm(isa.OpAddi, 2, 2, 8)
	b.EmitImm(isa.OpAddi, 3, 3, -1)
	b.Branch(isa.OpBne, 3, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()

	c, err := core.New(core.BaseDIEIRB(), prog)
	if err != nil {
		log.Fatal(err)
	}
	// Verify the timing core against a functional execution as it runs.
	oracle := fsim.New(prog)
	var want fsim.Retired
	c.OnCommit = func(rec *fsim.Retired) {
		if oerr := oracle.Step(&want); oerr != nil || rec.Result != want.Result || rec.PC != want.PC {
			log.Fatalf("timing core diverged at pc %d", rec.PC)
		}
	}
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hand-written dot product: %d instructions in %d cycles (IPC %.3f) on DIE-IRB\n",
		c.Stats.Committed, c.Stats.Cycles, c.Stats.IPC())
	fmt.Printf("  duplicate stream: %d reuse hits, %d ALU executions\n",
		c.Stats.IRBReuseHits, c.Stats.DupFUExec)
}

// profileBased defines a new synthetic profile — a small-alphabet
// histogram-style kernel — and runs it through the high-level driver.
func profileBased() {
	histogram := workload.Profile{
		Name: "histogram", Seed: 7,
		InnerIters: 16, Unroll: 2,
		InvariantOps: 8, IntOps: 6, Loads: 2, Stores: 1,
		CondBranches: 1, ArrayWords: 1 << 11, Stride: 1,
		ValueRange: 32, ChainDepth: 2,
	}
	r, err := sim.Run("DIE-IRB", core.BaseDIEIRB(), histogram, sim.Options{
		Insns:  100_000,
		Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom profile %q: IPC %.3f, IRB reuse rate %.2f, PC hit rate %.2f\n",
		r.Bench, r.IPC, r.ReuseRate(), r.PCHitRate())
}
