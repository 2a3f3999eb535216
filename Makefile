GO ?= go

.PHONY: all build test test-short race vet lint bench fuzz serve sweep examples clean

all: vet lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector; the parallel sweep runner and the
# experiment grids must stay race-clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt (any file `gofmt -l` lists fails the gate), go vet, then the
# repository invariant suite (internal/lint/...: nopanic, determinism,
# modedispatch, hotalloc, errcontract) and the static workload analyzer
# over every benchmark and kernel; each exits nonzero on findings.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/repolint
	$(GO) run ./cmd/irblint

# One testing.B benchmark per paper figure/table plus the simulator's
# engineering benchmarks: insns/s per mode with and without trace replay,
# batched-lockstep and fault-campaign aggregate insns/s, grid wall-clock
# serial vs parallel, the functional simulator and the IRB, allocs/op.
bench:
	$(GO) test -bench=. -benchmem . | tee bench_output.txt

# Native fuzz targets with a CI-length budget each; the committed seed
# corpus under testdata/fuzz/ replays as plain tests in `make test`.
# Minimizing a new input is capped at 2 s: at the default 60 s a target
# can spend most of its 20 s minimizing instead of executing.
fuzz:
	$(GO) test -fuzz=FuzzProgramDecode -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/program
	$(GO) test -fuzz=FuzzIRBLookup -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/irb
	$(GO) test -fuzz=FuzzTRBLookup -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/trb
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/fabric
	$(GO) test -fuzz=FuzzLeaseProtocol -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/fabric
	$(GO) test -fuzz=FuzzQuietMatchesProbing -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/fault
	$(GO) test -fuzz=FuzzTraceReplay -fuzztime=20s -fuzzminimizetime=2s -run '^$$' ./internal/fsim

# Run the serving daemon (README "Serving" section for the API).
serve:
	$(GO) run ./cmd/simserved

# Regenerate every experiment at full scale (about 185 s at the default
# -j 2 on a 2-vCPU Intel Xeon VM; 158-188 s over three runs).
sweep:
	$(GO) run ./cmd/sweep -exp all -insns 300000 | tee sweep_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/alusweep
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/customworkload
	$(GO) run ./examples/pipetrace

clean:
	$(GO) clean ./...
