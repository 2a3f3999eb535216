package fabric

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeClock freezes the fabric's clock seam for a test and restores it
// afterwards. Tests that swap the clock must not run in parallel.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func freezeClock(t *testing.T) *fakeClock {
	t.Helper()
	fc := &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	prev := now
	now = fc.now
	t.Cleanup(func() { now = prev })
	return fc
}

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.t = fc.t.Add(d)
}

// testJob builds one shippable grid cell.
func testJob(t *testing.T, name string, insns uint64) runner.Job {
	t.Helper()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	return runner.Job{Name: name, Config: core.BaseSIE(), Profile: p,
		Opts: sim.Options{Insns: insns}}
}

// testTTL is the coordinator lease TTL of the frozen-clock tests: workers
// heartbeat every 2.5 s, and one silent for more than 7.5 s is dead at
// the next sweep.
const testTTL = 10 * time.Second

// executeOne submits a one-cell run to Execute and returns the cell's
// settlement.
func executeOne(ctx context.Context, c *Coordinator, j runner.Job) (res sim.Result, err error) {
	c.Execute(ctx, []runner.Job{j}, func(_ int, r sim.Result, e error) { res, err = r, e })
	return res, err
}

// startExecute runs a one-cell Execute in a goroutine and returns the
// channel its settlement lands on.
func startExecute(c *Coordinator, j runner.Job) <-chan runner.Outcome {
	ch := make(chan runner.Outcome, 1)
	go func() {
		res, err := executeOne(context.Background(), c, j)
		ch <- runner.Outcome{Result: res, Err: err}
	}()
	return ch
}

// leaseAll polls Lease until one call grants the worker n cells (Execute
// enqueues asynchronously, so the first poll may race the enqueue). Each
// call loses the worker's previous grant, so the cells must come in one.
func leaseAll(t *testing.T, c *Coordinator, worker string, n int) []api.Lease {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := c.Lease(api.LeaseRequest{Worker: worker, Max: n})
		if len(resp.Leases) == n {
			return resp.Leases
		}
		if len(resp.Leases) != 0 || time.Now().After(deadline) {
			t.Fatalf("worker %s was granted %d cells, want %d", worker, len(resp.Leases), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecuteCompletesThroughWorker is the happy path: a cell flows
// coordinator → lease → completion → Execute return, with the display
// name rewritten the way the in-process cache path does.
func TestExecuteCompletesThroughWorker(t *testing.T) {
	freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"}) // register

	done := startExecute(c, testJob(t, "SIE", 5000))
	leases := leaseAll(t, c, "w1", 1)
	if leases[0].Cell.Name != "SIE" || leases[0].Cell.Insns != 5000 {
		t.Fatalf("leased cell %+v does not match the job", leases[0].Cell)
	}

	res := sim.Result{Bench: "gzip", Config: "wire-name"}
	res.Core.Committed = 5000
	resp := c.Complete(api.CompleteRequest{Worker: "w1", Cells: []api.CellCompletion{
		{LeaseID: leases[0].ID, CellID: leases[0].Cell.ID, Result: &res},
	}})
	if resp.Accepted != 1 || resp.Duplicates != 0 {
		t.Fatalf("completion response %+v, want 1 accepted", resp)
	}

	out := <-done
	if out.Err != nil {
		t.Fatalf("Execute returned error: %v", out.Err)
	}
	if out.Result.Config != "SIE" {
		t.Errorf("result config %q, want display name SIE", out.Result.Config)
	}
	if out.Result.Core.Committed != 5000 {
		t.Errorf("result lost its payload: %+v", out.Result.Core)
	}
	m := c.Metrics()
	if m.CellsCompleted != 1 || m.CellsLocal != 0 || m.LeasesActive != 0 {
		t.Errorf("metrics %+v, want one completed remote cell", m)
	}
}

// TestExecuteLocalWhenNoWorkers hands the cell back for in-process
// execution when the fleet is empty.
func TestExecuteLocalWhenNoWorkers(t *testing.T) {
	c := NewCoordinator(testTTL)
	if _, err := executeOne(context.Background(), c, testJob(t, "SIE", 1000)); !errors.Is(err, runner.ErrRunLocal) {
		t.Fatalf("Execute with no workers returned %v, want runner.ErrRunLocal", err)
	}
	if m := c.Metrics(); m.CellsLocal != 1 {
		t.Errorf("CellsLocal = %d, want 1", m.CellsLocal)
	}
}

// TestLocalFallbackHonoursCellTimeout: a cell the fleet hands back runs
// in-process under the runner's per-cell deadline, like any other cell.
func TestLocalFallbackHonoursCellTimeout(t *testing.T) {
	c := NewCoordinator(0)
	outs, _ := runner.Run(context.Background(), []runner.Job{testJob(t, "SIE", 2_000_000)}, runner.Options{
		Parallelism: 1,
		CellTimeout: 5 * time.Millisecond,
		Execute:     c.Execute,
	})
	var te *runner.CellTimeoutError
	if !errors.As(outs[0].Err, &te) {
		t.Fatalf("degraded cell returned %v, want *runner.CellTimeoutError", outs[0].Err)
	}
	if m := c.Metrics(); m.CellsLocal != 1 {
		t.Errorf("CellsLocal = %d, want 1", m.CellsLocal)
	}
}

// TestExecuteLocalForUnshippableJob: a job pinned to an in-memory program
// cannot cross the wire and must run in-process even with workers live.
func TestExecuteLocalForUnshippableJob(t *testing.T) {
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	j := testJob(t, "SIE", 1000)
	j.Opts.Program = &program.Program{} // pinned programs cannot cross the wire
	if _, ok := cellFromJob(j); ok {
		t.Fatal("program-pinned job reported shippable")
	}
	if _, err := executeOne(context.Background(), c, j); !errors.Is(err, runner.ErrRunLocal) {
		t.Fatalf("unshippable job returned %v, want runner.ErrRunLocal", err)
	}
}

// TestLeaseExpiryRetriesOnSurvivor is the crash-recovery spine: worker w1
// leases a cell and goes silent; the sweep marks it dead and re-queues
// the cell; survivor w2 picks it up at its next lease call and completes
// it; Execute returns the result. The expiry and the retry are both
// visible in the metrics.
func TestLeaseExpiryRetriesOnSurvivor(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	c.Lease(api.LeaseRequest{Worker: "w2"})

	done := startExecute(c, testJob(t, "SIE", 5000))
	leases := leaseAll(t, c, "w1", 1)

	// w2 heartbeats through w1's silence; the sweep kills w1 and takes
	// back the cell it held.
	fc.advance(8 * time.Second) // past 3 missed 2.5 s heartbeats
	c.Heartbeat(api.HeartbeatRequest{Worker: "w2"})
	c.Tick()
	m := c.Metrics()
	if m.DeadWorkers != 1 || m.LeaseExpiries != 1 || m.CellsRetried != 1 {
		t.Fatalf("after silence: metrics %+v, want 1 dead / 1 expiry / 1 retry", m)
	}

	release := leaseAll(t, c, "w2", 1)
	if release[0].Cell.ID != leases[0].Cell.ID {
		t.Fatalf("retry leased cell %d, want %d", release[0].Cell.ID, leases[0].Cell.ID)
	}

	res := sim.Result{Bench: "gzip"}
	res.Core.Committed = 5000
	c.Complete(api.CompleteRequest{Worker: "w2", Cells: []api.CellCompletion{
		{LeaseID: release[0].ID, CellID: release[0].Cell.ID, Result: &res},
	}})
	out := <-done
	if out.Err != nil || out.Result.Core.Committed != 5000 {
		t.Fatalf("retried cell settled wrong: %+v / %v", out.Result, out.Err)
	}

	// A heartbeat from the dead worker is told it is unknown.
	if hb := c.Heartbeat(api.HeartbeatRequest{Worker: "w1"}); hb.Known {
		t.Error("dead worker's heartbeat was acknowledged as known")
	}
}

// TestLostGrantRequeuedAtNextLease: a grant whose reply never reached its
// worker is lost at the worker's next lease call, even while the worker
// keeps heartbeating for that later grant: the cell is re-queued, its
// attempt is counted, and another worker runs it.
func TestLostGrantRequeuedAtNextLease(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	doneA := startExecute(c, testJob(t, "cell-a", 5000))
	lost := leaseAll(t, c, "w1", 1)[0] // the reply never reaches w1

	// w1 asks again only once cell-b is queued: a call that raced the
	// enqueue would be granted the lost cell-a straight back.
	doneB := startExecute(c, testJob(t, "cell-b", 6000))
	waitFor(t, func() bool { return c.Metrics().CellsPending == 1 })
	b := leaseAll(t, c, "w1", 1)[0]
	if b.Cell.Name != "cell-b" {
		t.Fatalf("w1's next lease call was granted %s, want cell-b", b.Cell.Name)
	}
	c.mu.Lock()
	attempts := c.cells[lost.Cell.ID].attempts
	c.mu.Unlock()
	m := c.Metrics()
	if attempts != 1 || m.LeaseExpiries != 1 || m.CellsRetried != 1 || m.CellsPending != 1 || m.LeasesActive != 1 {
		t.Fatalf("after w1's next lease call: the lost cell has %d attempts, metrics %+v; want 1 attempt, 1 expiry, 1 retry, 1 pending, 1 held",
			attempts, m)
	}

	// w1 heartbeats through a minute of running cell-b; the lost cell
	// stays queued for someone else.
	for i := 0; i < 24; i++ {
		fc.advance(2500 * time.Millisecond)
		c.Heartbeat(api.HeartbeatRequest{Worker: "w1"})
		c.Tick()
	}
	again := leaseAll(t, c, "w2", 1)[0]
	if again.Cell.ID != lost.Cell.ID || again.ID == lost.ID {
		t.Fatalf("w2 was granted cell %d under %s, want the lost cell %d under a new lease",
			again.Cell.ID, again.ID, lost.Cell.ID)
	}
	for _, l := range []struct {
		worker string
		lease  api.Lease
	}{{"w2", again}, {"w1", b}} {
		c.Complete(api.CompleteRequest{Worker: l.worker, Cells: []api.CellCompletion{
			{LeaseID: l.lease.ID, CellID: l.lease.Cell.ID, Result: &sim.Result{}},
		}})
	}
	for _, done := range []<-chan runner.Outcome{doneA, doneB} {
		if out := <-done; out.Err != nil {
			t.Fatalf("cell settled with %v", out.Err)
		}
	}
	if m := c.Metrics(); m.LeaseExpiries != 1 || m.DeadWorkers != 0 || m.LateCompletions != 0 {
		t.Errorf("final metrics %+v, want 1 expiry, no dead worker, no late completion", m)
	}
}

// TestRestartedWorkerTakesBackCells: a worker restarted under its old ID
// loses its predecessor's cells at its first lease call, long before the
// predecessor would be declared dead, and that same call grants them back
// under new leases.
func TestRestartedWorkerTakesBackCells(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	jobs := []runner.Job{testJob(t, "SIE", 1000), testJob(t, "SIE", 2000)}
	settled := make(chan error, len(jobs))
	go c.Execute(context.Background(), jobs, func(_ int, _ sim.Result, err error) { settled <- err })
	held := leaseAll(t, c, "w1", 2) // the predecessor dies holding both

	fc.advance(time.Second)
	again := c.Lease(api.LeaseRequest{Worker: "w1"}).Leases
	if len(again) != len(held) {
		t.Fatalf("the restarted worker's first call was granted %d cells, want its predecessor's %d", len(again), len(held))
	}
	if m := c.Metrics(); m.LeaseExpiries != 2 || m.CellsRetried != 2 || m.LeasesActive != 2 || m.DeadWorkers != 0 {
		t.Fatalf("after the restarted worker's first call: metrics %+v, want 2 expiries, 2 retries, 2 held cells, no dead worker", m)
	}
	var comps []api.CellCompletion
	for i, l := range again {
		if l.Cell.ID != held[i].Cell.ID || l.ID == held[i].ID {
			t.Errorf("re-lease %d: cell %d under %s, want cell %d under a new lease", i, l.Cell.ID, l.ID, held[i].Cell.ID)
		}
		comps = append(comps, api.CellCompletion{LeaseID: l.ID, CellID: l.Cell.ID, Result: &sim.Result{}})
	}
	c.Complete(api.CompleteRequest{Worker: "w1", Cells: comps})
	for range jobs {
		if err := <-settled; err != nil {
			t.Fatalf("cell settled with %v", err)
		}
	}
}

// TestDuplicateCompletionBitIdentity: a late duplicate completion for a
// settled cell is discarded, and the fabric asserts it bit-identical to
// the accepted result — a mismatch is the determinism bug the paper's
// whole discipline exists to catch, and it is counted.
func TestDuplicateCompletionBitIdentity(t *testing.T) {
	freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	done := startExecute(c, testJob(t, "SIE", 5000))
	leases := leaseAll(t, c, "w1", 1)

	res := sim.Result{Bench: "gzip"}
	res.Core.Committed = 5000
	comp := api.CellCompletion{LeaseID: leases[0].ID, CellID: leases[0].Cell.ID, Result: &res}
	c.Complete(api.CompleteRequest{Worker: "w1", Cells: []api.CellCompletion{comp}})
	<-done

	// The settled cell leaves the coordinator; only its digest stays.
	c.mu.Lock()
	tracked, digests := len(c.cells), len(c.settled)
	c.mu.Unlock()
	if tracked != 0 || digests != 1 {
		t.Fatalf("after settling: %d cells tracked and %d digests kept, want 0 and 1", tracked, digests)
	}

	// Identical duplicate: deduplicated, no mismatch.
	resp := c.Complete(api.CompleteRequest{Worker: "w2", Cells: []api.CellCompletion{comp}})
	if resp.Duplicates != 1 || resp.Accepted != 0 {
		t.Fatalf("duplicate response %+v, want 1 duplicate", resp)
	}
	if m := c.Metrics(); m.DuplicateCompletions != 1 || m.RetryMismatches != 0 {
		t.Fatalf("identical duplicate miscounted: %+v", m)
	}

	// Divergent duplicate: the bit-identity assertion must trip.
	diverged := res
	diverged.Core.Committed = 5001
	comp.Result = &diverged
	c.Complete(api.CompleteRequest{Worker: "w3", Cells: []api.CellCompletion{comp}})
	if m := c.Metrics(); m.DuplicateCompletions != 2 || m.RetryMismatches != 1 {
		t.Fatalf("divergent duplicate miscounted: %+v", m)
	}
}

// TestRetryBudgetDegradesToLocal: a cell that keeps losing its lease is
// re-queued after each of its first maxAttempts losses and handed back for
// in-process execution after the next one, instead of queueing forever on
// a fleet that keeps eating it.
func TestRetryBudgetDegradesToLocal(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	// Register both while the queue is empty; from here on "keeper" only
	// heartbeats, so retries queue remotely (live > 0) but land on w1.
	c.Lease(api.LeaseRequest{Worker: "w1"})
	c.Lease(api.LeaseRequest{Worker: "keeper"})
	done := startExecute(c, testJob(t, "SIE", 5000))

	for attempt := 1; attempt <= maxAttempts+1; attempt++ {
		leaseAll(t, c, "w1", 1) // w1 (revived) takes the cell and goes silent
		fc.advance(8 * time.Second)
		c.Heartbeat(api.HeartbeatRequest{Worker: "keeper"})
		c.Tick() // w1 dead: the cell is re-queued, or degrades once the budget is spent
		if attempt <= maxAttempts {
			if m := c.Metrics(); m.CellsRetried != uint64(attempt) || m.CellsLocal != 0 {
				t.Fatalf("after loss %d: metrics %+v, want %d retries and no local cell", attempt, m, attempt)
			}
		}
	}

	if out := <-done; !errors.Is(out.Err, runner.ErrRunLocal) {
		t.Fatalf("exhausted cell returned %v, want runner.ErrRunLocal", out.Err)
	}
	m := c.Metrics()
	if m.LeaseExpiries != maxAttempts+1 || m.CellsRetried != maxAttempts || m.CellsLocal != 1 {
		t.Errorf("metrics %+v, want %d expiries / %d retries / 1 local", m, maxAttempts+1, maxAttempts)
	}
}

// TestFleetDeathDegradesToLocal: when the last worker dies, leased cells
// route straight back to their waiting Execute calls, which hand them
// back for in-process execution.
func TestFleetDeathDegradesToLocal(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	done := startExecute(c, testJob(t, "SIE", 5000))
	leaseAll(t, c, "w1", 1)

	fc.advance(8 * time.Second)
	c.Tick()
	if out := <-done; !errors.Is(out.Err, runner.ErrRunLocal) {
		t.Fatalf("orphaned cell returned %v, want runner.ErrRunLocal", out.Err)
	}
}

// TestFleetDeathHandsBackPendingCells: when the last worker dies, the
// cells of a submission it never leased are handed back along with the
// one it held, so the run does not wait on a queue nobody serves.
func TestFleetDeathHandsBackPendingCells(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	jobs := []runner.Job{testJob(t, "SIE", 1000), testJob(t, "SIE", 2000), testJob(t, "SIE", 3000)}
	errs := make(chan error, len(jobs))
	go c.Execute(context.Background(), jobs, func(_ int, _ sim.Result, err error) { errs <- err })
	leaseAll(t, c, "w1", 1)

	fc.advance(8 * time.Second)
	c.Tick()
	for range jobs {
		select {
		case err := <-errs:
			if !errors.Is(err, runner.ErrRunLocal) {
				t.Errorf("cell settled with %v, want runner.ErrRunLocal", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a cell of the dead fleet's submission was never handed back")
		}
	}
	if m := c.Metrics(); m.CellsLocal != 3 || m.CellsPending != 0 || m.LeasesActive != 0 {
		t.Errorf("after the fleet died: %d local, %d pending, %d leases; want 3, 0, 0",
			m.CellsLocal, m.CellsPending, m.LeasesActive)
	}
}

// TestExecuteCancellation: a cancelled run abandons its cells; a late
// completion for one is counted as ignored, not crashed on.
func TestExecuteCancellation(t *testing.T) {
	freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := executeOne(ctx, c, testJob(t, "SIE", 5000))
		errCh <- err
	}()
	leases := leaseAll(t, c, "w1", 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute returned %v", err)
	}
	resp := c.Complete(api.CompleteRequest{Worker: "w1", Cells: []api.CellCompletion{
		{LeaseID: leases[0].ID, CellID: leases[0].Cell.ID, Result: &sim.Result{}},
	}})
	if resp.Accepted != 0 {
		t.Fatalf("completion for an abandoned cell was accepted: %+v", resp)
	}
	if m := c.Metrics(); m.IgnoredCompletions != 1 {
		t.Errorf("IgnoredCompletions = %d, want 1", m.IgnoredCompletions)
	}
}

// TestLeaseWaitGrantsEnqueuedCell: an idle worker's call held at the
// coordinator takes a cell as soon as it is enqueued, not at the end of
// the hold (2.5 s at the 10 s TTL).
func TestLeaseWaitGrantsEnqueuedCell(t *testing.T) {
	c := NewCoordinator(testTTL)
	got := make(chan api.LeaseResponse, 1)
	go func() { got <- c.LeaseWait(context.Background(), api.LeaseRequest{Worker: "w1"}) }()
	// The call registers the worker before it parks; an enqueue from then
	// on must release it.
	waitFor(t, func() bool { return c.Metrics().WorkersLive == 1 })

	start := time.Now()
	done := startExecute(c, testJob(t, "SIE", 5000))
	var resp api.LeaseResponse
	select {
	case resp = <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("the enqueue did not release the held lease call")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cell granted %v after its enqueue, want within 100ms", d)
	}
	if len(resp.Leases) != 1 {
		t.Fatalf("held reply %+v, want one lease", resp)
	}
	l := resp.Leases[0]
	c.Complete(api.CompleteRequest{Worker: "w1", Cells: []api.CellCompletion{
		{LeaseID: l.ID, CellID: l.Cell.ID, Result: &sim.Result{}},
	}})
	if out := <-done; out.Err != nil {
		t.Fatalf("Execute returned error: %v", out.Err)
	}
}

// TestTickWakesParkedWorker: a cell the sweep takes back from a dead
// worker reaches a survivor parked in a held lease call at once, not when
// the hold (2.5 s at the 10 s TTL) elapses.
func TestTickWakesParkedWorker(t *testing.T) {
	fc := freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	done := startExecute(c, testJob(t, "SIE", 5000))
	lost := leaseAll(t, c, "w1", 1)[0] // w1 dies holding it

	fc.advance(8 * time.Second) // past 3 missed 2.5 s heartbeats
	got := make(chan api.LeaseResponse, 1)
	go func() { got <- c.LeaseWait(context.Background(), api.LeaseRequest{Worker: "w2"}) }()
	waitFor(t, func() bool { return c.Metrics().WorkersLive == 2 })

	start := time.Now()
	c.Tick()
	var resp api.LeaseResponse
	select {
	case resp = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the survivor's held lease call never returned")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the survivor's held call returned %v after the sweep, want within 1s", d)
	}
	if len(resp.Leases) != 1 || resp.Leases[0].Cell.ID != lost.Cell.ID {
		t.Fatalf("the survivor's held call was granted %+v, want the dead worker's cell %d", resp.Leases, lost.Cell.ID)
	}
	l := resp.Leases[0]
	c.Complete(api.CompleteRequest{Worker: "w2", Cells: []api.CellCompletion{
		{LeaseID: l.ID, CellID: l.Cell.ID, Result: &sim.Result{}},
	}})
	if out := <-done; out.Err != nil {
		t.Fatalf("Execute returned error: %v", out.Err)
	}
	if m := c.Metrics(); m.DeadWorkers != 1 || m.LeaseExpiries != 1 || m.CellsRetried != 1 {
		t.Errorf("metrics %+v, want 1 dead worker, 1 expiry, 1 retry", m)
	}
}

// TestLeaseWaitHoldElapses: with nothing to grant, a held call returns
// empty once the hold — a quarter of the lease TTL, the heartbeat cadence
// the reply names — elapses.
func TestLeaseWaitHoldElapses(t *testing.T) {
	const hold = 50 * time.Millisecond
	c := NewCoordinator(4 * hold)
	start := time.Now()
	resp := c.LeaseWait(context.Background(), api.LeaseRequest{Worker: "w1"})
	if d := time.Since(start); d < hold || d > hold+time.Second {
		t.Errorf("held call returned after %v, want after the %v hold", d, hold)
	}
	if len(resp.Leases) != 0 || resp.HeartbeatMillis != hold.Milliseconds() {
		t.Errorf("held reply %+v, want empty with a %v heartbeat", resp, hold)
	}
}

// TestLeaseWaitEndsWithContext: a held call returns as soon as its
// context ends, granting nothing.
func TestLeaseWaitEndsWithContext(t *testing.T) {
	c := NewCoordinator(testTTL)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan api.LeaseResponse, 1)
	go func() { got <- c.LeaseWait(ctx, api.LeaseRequest{Worker: "w1"}) }()
	waitFor(t, func() bool { return c.Metrics().WorkersLive == 1 })

	start := time.Now()
	cancel()
	select {
	case resp := <-got:
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("held call returned %v after its context ended, want within 100ms", d)
		}
		if len(resp.Leases) != 0 {
			t.Errorf("a call whose context ended was granted %+v", resp.Leases)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("held call outlived its context")
	}
}

// TestWorkerErrorBecomesRemoteCellError: a worker-reported simulation
// failure surfaces to Execute as a structured *RemoteCellError.
func TestWorkerErrorBecomesRemoteCellError(t *testing.T) {
	freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	done := startExecute(c, testJob(t, "SIE", 5000))
	leases := leaseAll(t, c, "w1", 1)
	c.Complete(api.CompleteRequest{Worker: "w1", Cells: []api.CellCompletion{
		{LeaseID: leases[0].ID, CellID: leases[0].Cell.ID, Error: "verification divergence"},
	}})
	out := <-done
	var rce *RemoteCellError
	if !errors.As(out.Err, &rce) || rce.Worker != "w1" {
		t.Fatalf("worker failure surfaced as %v, want *RemoteCellError from w1", out.Err)
	}
}

// TestCellRoundTripPreservesFingerprint: the wire projection and its
// worker-side inverse agree on the content-addressed fingerprint, for
// plain and fault-injected cells alike — the property that makes the
// fleet's caches one shared tier.
func TestCellRoundTripPreservesFingerprint(t *testing.T) {
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-4, Seed: 7, MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain := testJob(t, "SIE", 5000)
	faulty := testJob(t, "SIE-faulty", 5000)
	faulty.Opts.Injector = inj

	for _, j := range []runner.Job{plain, faulty} {
		wire, ok := cellFromJob(j)
		if !ok {
			t.Fatalf("job %s not shippable", j.Name)
		}
		back, err := JobFromCell(wire)
		if err != nil {
			t.Fatalf("rebuilding %s: %v", j.Name, err)
		}
		want, err := j.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprinting %s: %v", j.Name, err)
		}
		got, err := back.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprinting rebuilt %s: %v", j.Name, err)
		}
		if got != want {
			t.Errorf("%s: fingerprints diverged across the wire: %s vs %s", j.Name, want, got)
		}
		if !reflect.DeepEqual(back.Config, j.Config) {
			t.Errorf("%s: config did not survive the wire", j.Name)
		}
	}
}

// TestLeaseGrantsInQueueOrder: placement ignores which worker asks. With
// two live workers and six queued cells, each lease call takes the oldest
// pending cells, so the second caller gets the next two.
func TestLeaseGrantsInQueueOrder(t *testing.T) {
	freezeClock(t)
	c := NewCoordinator(testTTL)
	c.Lease(api.LeaseRequest{Worker: "w1"})
	c.Lease(api.LeaseRequest{Worker: "w2"})
	var jobs []runner.Job
	for i := 1; i <= 6; i++ {
		jobs = append(jobs, testJob(t, "SIE", uint64(1000*i)))
	}
	var ids []uint64
	for i, cl := range c.enqueue(jobs, make(chan outcome, len(jobs))) {
		if cl == nil {
			t.Fatalf("cell %d was not enqueued", i)
		}
		ids = append(ids, cl.id)
	}
	for k, w := range []string{"w2", "w1"} {
		var got []uint64
		for _, l := range c.Lease(api.LeaseRequest{Worker: w, Max: 2}).Leases {
			got = append(got, l.Cell.ID)
		}
		if want := ids[2*k : 2*k+2]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s leased cells %v, want the oldest pending %v", w, got, want)
		}
	}
}

// TestSubmissionReachesHeldWorkersWhole: Execute enqueues a run's cells
// as one submission with one wake, so a worker whose lease call is held
// at the coordinator is granted every cell up to its Max in a single
// lease, and two held workers that each ask for fewer split the run
// between them.
func TestSubmissionReachesHeldWorkersWhole(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells int
		max   []int // per held worker
	}{
		{"one worker", 3, []int{4}},
		{"two workers", 4, []int{2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(testTTL)
			got := make([]chan api.LeaseResponse, len(tc.max))
			for w, max := range tc.max {
				got[w] = make(chan api.LeaseResponse, 1)
				go func() {
					got[w] <- c.LeaseWait(context.Background(), api.LeaseRequest{Worker: fmt.Sprintf("w%d", w), Max: max})
				}()
			}
			waitFor(t, func() bool { return c.Metrics().WorkersLive == len(tc.max) })

			var jobs []runner.Job
			for i := 0; i < tc.cells; i++ {
				jobs = append(jobs, testJob(t, "SIE", uint64(1000+i)))
			}
			settled := make(chan int, tc.cells)
			go c.Execute(context.Background(), jobs, func(k int, _ sim.Result, err error) {
				if err != nil {
					t.Errorf("cell %d settled with %v", k, err)
				}
				settled <- k
			})

			seen := map[uint64]bool{}
			for w := range tc.max {
				var resp api.LeaseResponse
				select {
				case resp = <-got[w]:
				case <-time.After(2 * time.Second):
					t.Fatalf("worker %d's held call was not released", w)
				}
				if want := tc.cells / len(tc.max); len(resp.Leases) != want {
					t.Errorf("worker %d's one lease call carried %d cells, want %d", w, len(resp.Leases), want)
				}
				var comps []api.CellCompletion
				for _, l := range resp.Leases {
					seen[l.Cell.ID] = true
					comps = append(comps, api.CellCompletion{LeaseID: l.ID, CellID: l.Cell.ID, Result: &sim.Result{}})
				}
				c.Complete(api.CompleteRequest{Worker: fmt.Sprintf("w%d", w), Cells: comps})
			}
			if len(seen) != tc.cells {
				t.Fatalf("workers leased %d distinct cells, want all %d", len(seen), tc.cells)
			}
			for range tc.cells {
				select {
				case <-settled:
				case <-time.After(2 * time.Second):
					t.Fatal("a completed cell never settled")
				}
			}
		})
	}
}
