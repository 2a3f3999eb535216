package fabric

import (
	"errors"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// FuzzJournalReplay throws arbitrary WAL images at the replay decoder.
// Replay must never panic, must account for every input byte as either
// replayed prefix or discarded tail, and must be idempotent: replaying
// the prefix it declared valid reproduces exactly the same records with
// no tail error. Truncated and corrupt tails are detected and skipped,
// never trusted.
func FuzzJournalReplay(f *testing.F) {
	// Seed from real frames alongside the committed corpus files, so the
	// fuzzer starts from deep inside the valid-WAL space.
	res := sim.Result{Bench: "gzip", Config: "SIE"}
	res.Core.Committed = 4096
	var clean []byte
	for _, rec := range []Record{
		{Type: RecRun, RunID: "run-0001", Cells: 2},
		{Type: RecCache, Key: "sha256:seed", Result: &res},
		{Type: RecCell, RunID: "run-0001", Index: 0, Key: "sha256:seed", CacheHit: true},
		{Type: RecFinish, RunID: "run-0001", Status: "done"},
	} {
		frame, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, frame...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn final payload
	f.Add(clean[:5])            // torn header
	f.Add([]byte{})
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, stats := decodeRecords(data)
		if stats.Records != len(recs) {
			t.Fatalf("stats count %d records, replay returned %d", stats.Records, len(recs))
		}
		if stats.ValidBytes+stats.TruncatedBytes != int64(len(data)) {
			t.Fatalf("byte accounting broken: valid %d + truncated %d != input %d",
				stats.ValidBytes, stats.TruncatedBytes, len(data))
		}
		if stats.TruncatedBytes > 0 && stats.TailError == "" {
			t.Fatal("bytes discarded without a tail error")
		}
		if stats.TruncatedBytes == 0 && stats.TailError != "" {
			t.Fatalf("tail error %q on a fully-replayed log", stats.TailError)
		}
		// Idempotence: the declared-valid prefix must replay cleanly to
		// the same record count (crash recovery truncates to exactly it).
		again, againStats := decodeRecords(data[:stats.ValidBytes])
		if len(again) != len(recs) || againStats.TailError != "" || againStats.TruncatedBytes != 0 {
			t.Fatalf("valid prefix did not replay cleanly: %d vs %d records, %+v",
				len(again), len(recs), againStats)
		}
	})
}

// FuzzLeaseProtocol drives the coordinator's lease state machine with
// arbitrary sequences of protocol operations from three workers under the
// frozen clock: enqueue a submission, Lease, Heartbeat, Complete under a
// current, stale or duplicate lease, Tick, advance the clock, and abandon
// a submission. Each operation is an opcode byte and an argument byte.
// After every operation each cell must be in exactly one state (pending,
// held by one live worker, settled once, handed back once, or abandoned),
// a worker that just leased must hold only that reply's cells, and
// LeasesActive plus CellsPending must count the unsettled cells.
//
// The committed seeds under testdata/fuzz/FuzzLeaseProtocol spell out the
// protocol's named scenarios: a happy path, a grant whose reply was lost,
// a worker restarted under its old ID, a dead worker's stale and
// duplicate completions, fleet death, an abandoned submission and a spent
// retry budget.
func FuzzLeaseProtocol(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		fc := freezeClock(t)
		h := &protocolHarness{c: NewCoordinator(testTTL), job: testJob(t, "SIE", 1000),
			latest: map[string][]fuzzGrant{}}
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(t, fc, ops[i], ops[i+1])
			h.check(t)
		}
	})
}

// The FuzzLeaseProtocol opcodes; an opcode byte selects op%opCount.
const (
	opEnqueue       = iota // a submission of 1 + arg%3 cells, at most four in all
	opLease                // worker arg%3 asks for (arg/3)%4 cells (0 = the default batch)
	opHeartbeat            // worker arg%3 heartbeats
	opComplete             // lease arg%len of all granted so far is reported by its worker: current, stale or duplicate
	opCompleteGrant        // worker arg%3 reports its latest grant
	opTick                 // one sweep
	opAdvance              // the clock moves (arg%16) × 500 ms
	opAbandon              // submission arg%len is cancelled
	opCount
)

// protocolHarness is FuzzLeaseProtocol's model of what the coordinator
// owes each cell it was handed.
type protocolHarness struct {
	c      *Coordinator
	job    runner.Job
	subs   []*fuzzSubmission
	grants []fuzzGrant            // every lease granted, oldest first
	latest map[string][]fuzzGrant // each worker's latest grant
}

type fuzzSubmission struct {
	done  chan outcome
	cells []*cell // nil where the cell ran in-process at enqueue
	seen  []int   // outcomes received per cell
	local []bool  // the cell was handed back with runner.ErrRunLocal
	gone  []bool  // the cell was abandoned while unsettled
}

type fuzzGrant struct {
	worker string
	lease  api.Lease
}

var fuzzWorkers = [...]string{"w0", "w1", "w2"}

// step applies one operation, then collects the settlements it caused.
func (h *protocolHarness) step(t *testing.T, fc *fakeClock, op, arg byte) {
	t.Helper()
	c := h.c
	w := fuzzWorkers[int(arg)%len(fuzzWorkers)]
	switch op % opCount {
	case opEnqueue:
		if len(h.subs) == 4 {
			return
		}
		n := 1 + int(arg)%3
		jobs := make([]runner.Job, n)
		for k := range jobs {
			jobs[k] = h.job
		}
		done := make(chan outcome, n)
		h.subs = append(h.subs, &fuzzSubmission{done: done, cells: c.enqueue(jobs, done),
			seen: make([]int, n), local: make([]bool, n), gone: make([]bool, n)})
	case opLease:
		resp := c.Lease(api.LeaseRequest{Worker: w, Max: int(arg) / 3 % 4})
		var got []fuzzGrant
		want := map[uint64]bool{}
		for _, l := range resp.Leases {
			got = append(got, fuzzGrant{w, l})
			want[l.Cell.ID] = true
		}
		h.grants = append(h.grants, got...)
		h.latest[w] = got
		for id, holder := range holders(c) {
			if holder == w && !want[id] {
				t.Fatalf("%s holds cell %d, which its latest lease reply did not carry", w, id)
			}
		}
	case opHeartbeat:
		c.Heartbeat(api.HeartbeatRequest{Worker: w})
	case opComplete:
		if len(h.grants) == 0 {
			return
		}
		g := h.grants[int(arg)%len(h.grants)]
		h.complete(g.worker, []fuzzGrant{g})
	case opCompleteGrant:
		h.complete(w, h.latest[w])
	case opTick:
		c.Tick()
	case opAdvance:
		fc.advance(time.Duration(arg%16) * 500 * time.Millisecond)
	case opAbandon:
		if len(h.subs) == 0 {
			return
		}
		s := h.subs[int(arg)%len(h.subs)]
		c.mu.Lock()
		for k, cl := range s.cells {
			s.gone[k] = s.gone[k] || cl != nil && c.cells[cl.id] == cl
		}
		c.mu.Unlock()
		c.abandon(s.cells)
	}
	for _, s := range h.subs {
		for drained := false; !drained; {
			select {
			case o := <-s.done:
				s.seen[o.k]++
				s.local[o.k] = errors.Is(o.err, runner.ErrRunLocal)
			default:
				drained = true
			}
		}
	}
}

// complete reports grants the way a worker does. A cell's result is a
// function of the cell alone, as a deterministic simulation's is, so every
// duplicate must match the settled completion.
func (h *protocolHarness) complete(worker string, gs []fuzzGrant) {
	req := api.CompleteRequest{Worker: worker}
	for _, g := range gs {
		comp := api.CellCompletion{LeaseID: g.lease.ID, CellID: g.lease.Cell.ID}
		if g.lease.Cell.ID%2 == 1 {
			comp.Error = "simulated divergence"
		} else {
			comp.Result = &sim.Result{Bench: "gzip"}
			comp.Result.Core.Committed = g.lease.Cell.ID
		}
		req.Cells = append(req.Cells, comp)
	}
	h.c.Complete(req)
}

// check asserts the protocol invariants against the harness's model.
func (h *protocolHarness) check(t *testing.T) {
	t.Helper()
	c := h.c
	held := holders(c)
	m := c.Metrics()

	c.mu.Lock()
	queued := map[uint64]int{}
	for _, id := range c.pending {
		if cl, ok := c.cells[id]; ok && cl.holder == "" {
			queued[id]++
		}
	}
	var settled, handedBack, local uint64
	for _, s := range h.subs {
		for k, cl := range s.cells {
			if cl == nil {
				local++
				continue
			}
			_, tracked := c.cells[cl.id]
			_, digest := c.settled[cl.id]
			holder, isHeld := held[cl.id]
			switch {
			case s.seen[k] > 1:
				t.Fatalf("cell %d settled %d times", cl.id, s.seen[k])
			case tracked && (s.seen[k] != 0 || s.gone[k]):
				t.Fatalf("cell %d is still tracked after it was settled or abandoned", cl.id)
			case isHeld && c.workers[holder].dead:
				t.Fatalf("dead worker %s holds cell %d", holder, cl.id)
			case tracked && !isHeld && queued[cl.id] != 1:
				t.Fatalf("pending cell %d is queued %d times", cl.id, queued[cl.id])
			case !tracked && s.seen[k] == 0 && !s.gone[k]:
				t.Fatalf("cell %d left the coordinator unsettled", cl.id)
			case !tracked && s.seen[k] == 1 && s.gone[k]:
				t.Fatalf("cell %d was settled and abandoned", cl.id)
			case digest != (s.seen[k] == 1 && !s.local[k]):
				t.Fatalf("cell %d: settled digest kept %t, settled by a completion %t", cl.id, digest, s.seen[k] == 1 && !s.local[k])
			}
			if s.seen[k] == 1 && s.local[k] {
				handedBack++
			} else if s.seen[k] == 1 {
				settled++
			}
		}
	}
	unsettled := len(c.cells)
	c.mu.Unlock()

	if m.LeasesActive != len(held) || m.LeasesActive+m.CellsPending != unsettled {
		t.Fatalf("%d cells held and %d unsettled, metrics report %d held and %d pending",
			len(held), unsettled, m.LeasesActive, m.CellsPending)
	}
	if m.CellsCompleted != settled || m.CellsLocal != handedBack+local || m.RetryMismatches != 0 {
		t.Fatalf("metrics %+v, want %d completed, %d local and no mismatch", m, settled, handedBack+local)
	}
}

// holders maps every held cell to the worker holding it.
func holders(c *Coordinator) map[uint64]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint64]string{}
	for id, cl := range c.cells {
		if cl.holder != "" {
			out[id] = cl.holder
		}
	}
	return out
}
