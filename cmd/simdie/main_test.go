package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDumpListsSimulatedProgram: -dump disassembles exactly the program a
// run with the same instruction budget simulates, the one sim.ProgramFor
// sizes.
func TestDumpListsSimulatedProgram(t *testing.T) {
	const insns = 30_000
	path := filepath.Join(t.TempDir(), "dump.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run("gzip", "DIE-IRB", insns, false, 1, false, false, false,
		1024, 1, 0, 0, 0, 0, 0, true, 0)
	os.Stdout = stdout
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("simdie -dump: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	p, _ := workload.ByName("gzip")
	prog, err := sim.ProgramFor(p, sim.Options{Insns: insns})
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(gotLines) != len(prog.Code) {
		t.Fatalf("-dump listed %d instructions, the simulated program has %d", len(gotLines), len(prog.Code))
	}
	for pc, in := range prog.Code {
		if want := fmt.Sprintf("%6d: %s", pc, in); gotLines[pc] != want {
			t.Fatalf("-dump line %d is %q, the simulated program has %q", pc, gotLines[pc], want)
		}
	}
}
