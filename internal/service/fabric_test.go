package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/service/api"
)

// readEvents consumes an SSE response body, decoding each data frame
// into a CellEvent and sending it on the returned channel, which closes
// when the stream ends (terminal event or disconnect).
func readEvents(t *testing.T, resp *http.Response) <-chan api.CellEvent {
	t.Helper()
	out := make(chan api.CellEvent, 64)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev api.CellEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("decoding event %q: %v", line, err)
				return
			}
			out <- ev
		}
	}()
	return out
}

// subscribe opens the SSE stream for a run.
func subscribe(t *testing.T, base, runID string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + runID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	return resp
}

// TestRunEventsLiveStream exercises the live SSE path directly: a
// subscriber attached before any events sees every published cell in
// order plus the terminal frame, and a subscriber that disconnects
// mid-stream tears down only its own stream — later events still reach
// the survivor and the stream table is cleaned up by the terminal event.
func TestRunEventsLiveStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.openStream("run-live")

	early := subscribe(t, ts.URL, "run-live")
	earlyEvents := readEvents(t, early)

	cr := CellResult{Bench: "gzip", Config: "SIE"}
	s.publishEvent("run-live", api.CellEvent{Index: 0, Cell: &cr})
	s.publishEvent("run-live", api.CellEvent{Index: 1, Cell: &cr})

	// A second subscriber joins mid-run, reads the history, then drops.
	quitter := subscribe(t, ts.URL, "run-live")
	quitterEvents := readEvents(t, quitter)
	if ev := <-quitterEvents; ev.Seq != 0 || ev.Index != 0 {
		t.Fatalf("mid-run subscriber missed history: %+v", ev)
	}
	quitter.Body.Close() // disconnect; the run must not care

	s.publishEvent("run-live", api.CellEvent{Index: 2, Cell: &cr})
	s.publishEvent("run-live", api.CellEvent{Index: -1, Done: true, Status: StatusDone})

	var got []api.CellEvent
	for ev := range earlyEvents {
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("survivor saw %d events, want 4: %+v", len(got), got)
	}
	for i, ev := range got[:3] {
		if ev.Seq != i || ev.Index != i || ev.Cell == nil || ev.RunID != "run-live" {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
	}
	last := got[3]
	if !last.Done || last.Status != StatusDone || last.Index != -1 {
		t.Errorf("terminal event malformed: %+v", last)
	}

	s.streamMu.Lock()
	live := len(s.streams)
	s.streamMu.Unlock()
	if live != 0 {
		t.Errorf("%d streams left in the table after the terminal event", live)
	}
}

// TestRunEventsReplayAndErrors: a finished run replays its recorded
// cells over SSE; an unknown run is 404.
func TestRunEventsReplayAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, run, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK || run.Status != StatusDone {
		t.Fatalf("seed run: code %d status %s", code, run.Status)
	}

	resp := subscribe(t, ts.URL, run.ID)
	var got []api.CellEvent
	for ev := range readEvents(t, resp) {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("replay produced %d events, want cell+done: %+v", len(got), got)
	}
	if got[0].Cell == nil || got[0].Cell.Result == nil || got[0].Cell.Bench != "gzip" {
		t.Errorf("replayed cell malformed: %+v", got[0])
	}
	if !got[1].Done || got[1].Status != StatusDone {
		t.Errorf("replayed terminal malformed: %+v", got[1])
	}

	r, err := http.Get(ts.URL + "/v1/runs/run-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run events: status %d, want 404", r.StatusCode)
	}
}

// TestSSEDisconnectLeavesRunAndJournalIntact is the client-disconnect
// drill: an SSE subscriber watching a live run drops mid-stream; the run
// (owned by the submitting request, not the watcher) still completes,
// and the journal holds its full accepted→finished record.
func TestSSEDisconnectLeavesRunAndJournalIntact(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := fabric.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ctl := stubRunner(t)
	_, ts := newTestServer(t, Config{Workers: 1, Journal: j})

	runDone := make(chan Run, 1)
	go func() {
		_, run, _ := postRun(t, ts.URL, smallRun)
		runDone <- run
	}()
	<-ctl.started // the run is in flight, holding on the stub

	// Find the in-flight run and watch it.
	var runID string
	waitForCond(t, func() bool {
		code, body := get(t, ts.URL+"/v1/runs")
		var list struct {
			Runs []Run `json:"runs"`
		}
		if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil {
			return false
		}
		for _, r := range list.Runs {
			if r.Finished == nil {
				runID = r.ID
				return true
			}
		}
		return false
	})
	watcher := subscribe(t, ts.URL, runID)
	watcher.Body.Close() // disconnect mid-run

	close(ctl.release)
	run := <-runDone
	if run.Status != StatusDone {
		t.Fatalf("run finished %s after watcher disconnect, want done", run.Status)
	}

	// The journal must hold the run's complete lifecycle.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, stats, err := fabric.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if stats.TruncatedBytes != 0 {
		t.Errorf("journal has a torn tail after a clean run: %+v", stats)
	}
	var sawRun, sawFinish bool
	for _, rec := range recs {
		switch {
		case rec.Type == fabric.RecRun && rec.RunID == runID:
			sawRun = true
		case rec.Type == fabric.RecFinish && rec.RunID == runID:
			sawFinish = true
			if rec.Status != StatusDone {
				t.Errorf("journaled finish status %q, want done", rec.Status)
			}
		}
	}
	if !sawRun || !sawFinish {
		t.Errorf("journal incomplete: run=%v finish=%v over %d records", sawRun, sawFinish, len(recs))
	}
}

// twoCellRun expands to two cells on distinct benchmarks, so resume
// behavior is visible per cell.
const twoCellRun = `{"configs":["DIE-IRB"],"benchmarks":["gzip","bzip2"],"insns":2000}`

// TestJournalResumeSkipsCompletedCells is the coordinator-restart drill:
// a run crashes after completing its cells but before its finish record.
// The restarted server must resume it from the journal — every completed
// cell served from the replayed cache, bit-identical, not re-simulated —
// and new run IDs must not collide with the recovered one.
func TestJournalResumeSkipsCompletedCells(t *testing.T) {
	dirA := t.TempDir()
	jA, _, _, err := fabric.OpenJournal(dirA)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Journal: jA})
	code, first, _ := postRun(t, ts.URL, twoCellRun)
	if code != http.StatusOK || first.Status != StatusDone || first.Cells != 2 {
		t.Fatalf("seed run: code %d %+v", code, first)
	}
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window by rebuilding the WAL without the finish
	// record: the run was accepted and every cell landed, but the server
	// died before marking it done.
	_, recs, _, err := fabric.OpenJournal(dirA)
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	jB, _, _, err := fabric.OpenJournal(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if err := jB.Close(); err != nil { // reopen below, as a restart would
		t.Fatal(err)
	}
	jB, _, _, err = fabric.OpenJournal(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer jB.Close()
	for _, rec := range recs {
		if rec.Type == fabric.RecFinish {
			continue
		}
		if err := jB.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}

	jB2, recsB, statsB, err := fabric.OpenJournal(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer jB2.Close()
	s2 := New(Config{Workers: 1, Journal: jB2})
	resumed, err := s2.RecoverJournal(context.Background(), recsB, statsB)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d runs, want 1", resumed)
	}

	snap, ok := s2.snapshotRun(first.ID)
	if !ok {
		t.Fatalf("recovered run %s has no record", first.ID)
	}
	if snap.Status != StatusDone {
		t.Fatalf("resumed run status %s, want done", snap.Status)
	}
	// Both cells must come from the replayed cache — a resume that
	// re-simulates completed cells defeats the journal.
	if snap.CacheHits != 2 {
		t.Errorf("resume simulated cells: %d cache hits, want 2", snap.CacheHits)
	}
	if len(snap.Results) != len(first.Results) {
		t.Fatalf("resumed run has %d results, want %d", len(snap.Results), len(first.Results))
	}
	for i := range snap.Results {
		if !snap.Results[i].CacheHit {
			t.Errorf("cell %d re-simulated on resume", i)
		}
		if !reflect.DeepEqual(snap.Results[i].Result, first.Results[i].Result) {
			t.Errorf("cell %d result differs from the pre-crash run", i)
		}
	}

	// Replay metrics surface the recovery, and fresh IDs advance past the
	// recovered run instead of colliding.
	info := s2.replay.Load()
	if info == nil || info.runs != 1 || info.resumed != 1 {
		t.Errorf("replay info wrong: %+v", info)
	}
	if next := s2.newRun(1); next.ID == first.ID {
		t.Errorf("new run ID %s collides with the recovered run", next.ID)
	}
}

// TestJournalRestoreFinishedRun: a cleanly finished run replays into a
// queryable record without re-executing anything.
func TestJournalRestoreFinishedRun(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := fabric.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Journal: j})
	code, first, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK || first.Status != StatusDone {
		t.Fatalf("seed run: code %d %+v", code, first)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, stats, err := fabric.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := New(Config{Workers: 1, Journal: j2})
	resumed, err := s2.RecoverJournal(context.Background(), recs, stats)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if resumed != 0 {
		t.Errorf("finished run was resumed (%d), want pure restore", resumed)
	}
	snap, ok := s2.snapshotRun(first.ID)
	if !ok || snap.Status != StatusDone || len(snap.Results) != 1 {
		t.Fatalf("restored run malformed: ok=%v %+v", ok, snap)
	}
	if !reflect.DeepEqual(snap.Results[0].Result, first.Results[0].Result) {
		t.Error("restored result differs from the original")
	}
}

// TestRetryAfterIsJittered: admission rejections carry a Retry-After
// whose value comes from the shared jittered backoff helper — sane
// bounds, and not the same constant for every rejected client.
func TestRetryAfterIsJittered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.BeginDrain()
	values := map[string]bool{}
	for i := 0; i < 16; i++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(smallRun))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining POST: status %d, want 503", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 || secs > 10 {
			t.Fatalf("Retry-After %q out of contract [1s,10s]", ra)
		}
		values[ra] = true
	}
	if len(values) < 2 {
		t.Errorf("16 rejections all got Retry-After %v — jitter is not applied", values)
	}
}

// TestLeaseEndpointsOverHTTP drives the coordinator's wire surface
// through the real mux with the fabric's own client: register and lease,
// heartbeat, and the draining refusal with its Retry-After. The short TTL
// keeps the idle first lease call's hold (a quarter of it) short.
func TestLeaseEndpointsOverHTTP(t *testing.T) {
	coord := fabric.NewCoordinator(200 * time.Millisecond)
	s, ts := newTestServer(t, Config{Coordinator: coord})
	cl := &fabric.Client{BaseURL: ts.URL}
	ctx := context.Background()

	resp, err := cl.Lease(ctx, api.LeaseRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if resp.HeartbeatMillis != 50 {
		t.Errorf("lease response names a %d ms heartbeat, want a quarter of the 200 ms TTL", resp.HeartbeatMillis)
	}
	if _, err := cl.Heartbeat(ctx, api.HeartbeatRequest{Worker: "w1"}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}

	// Missing identity is a 400, not a grant.
	if _, err := cl.Lease(ctx, api.LeaseRequest{}); err == nil {
		t.Error("anonymous lease was granted")
	}

	s.BeginDrain()
	_, err = cl.Lease(ctx, api.LeaseRequest{Worker: "w1"})
	var ra *fabric.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("draining lease surfaced as %v, want *fabric.RetryAfterError", err)
	}
	if ra.Delay < time.Second || ra.Delay > 10*time.Second {
		t.Errorf("draining Retry-After %v out of contract", ra.Delay)
	}
	// Heartbeats keep working through the drain, so in-flight cells land.
	if _, err := cl.Heartbeat(ctx, api.HeartbeatRequest{Worker: "w1"}); err != nil {
		t.Errorf("heartbeat refused during drain: %v", err)
	}
}

// TestDrainReleasesHeldLease: BeginDrain releases a lease call held at
// the coordinator at once, answering it as a lease arriving during the
// drain is answered: 503 with Retry-After.
func TestDrainReleasesHeldLease(t *testing.T) {
	coord := fabric.NewCoordinator(10 * time.Second) // a 2.5 s hold
	s, ts := newTestServer(t, Config{Coordinator: coord})
	cl := &fabric.Client{BaseURL: ts.URL}
	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Lease(context.Background(), api.LeaseRequest{Worker: "w1"})
		errCh <- err
	}()
	// The call registers the worker before it parks.
	waitForCond(t, func() bool { return coord.Metrics().WorkersLive == 1 })

	start := time.Now()
	s.BeginDrain()
	select {
	case err := <-errCh:
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("held lease released %v after BeginDrain, want within 100ms", d)
		}
		var ra *fabric.RetryAfterError
		if !errors.As(err, &ra) || ra.Status != http.StatusServiceUnavailable {
			t.Fatalf("drained held lease surfaced as %v, want 503 with Retry-After", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BeginDrain did not release the held lease call")
	}
}

// TestHeldWorkerStaysLive: a real worker parked in held lease calls, with
// the expiry sweep running, is never marked dead, and it re-polls once per
// hold rather than spinning.
func TestHeldWorkerStaysLive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// 50 ms holds; a worker silent for 150 ms is marked dead.
	coord := fabric.NewCoordinator(200 * time.Millisecond)
	coord.Start(ctx)
	s, ts := newTestServer(t, Config{Coordinator: coord})
	worker := &fabric.Worker{
		Client: &fabric.Client{BaseURL: ts.URL},
		ID:     "w1",
		Exec:   New(Config{}).RunJobs,
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	const holds = 10
	replies := func() int {
		s.met.mu.Lock()
		defer s.met.mu.Unlock()
		return int(s.met.requests[routeCode{"POST /v1/lease", http.StatusOK}])
	}
	waitForCond(t, func() bool { return replies() >= holds })
	if d := time.Since(start); d < (holds-1)*50*time.Millisecond {
		t.Errorf("%d lease replies in %v: the calls were not held", holds, d)
	}
	if m := coord.Metrics(); m.DeadWorkers != 0 || m.WorkersLive != 1 {
		t.Errorf("held worker lost its liveness: %+v", m)
	}
}

// TestCoordinatorModeEndToEnd is the service-level fabric spine: a run
// posted to a coordinator-mode daemon executes on a pulled worker over
// the real HTTP lease protocol, and the /metrics fabric section reflects
// it. A repeat of the run is answered from the coordinator's cache and
// never reaches the worker.
func TestCoordinatorModeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := fabric.NewCoordinator(2 * time.Second)
	coord.Start(ctx)
	_, ts := newTestServer(t, Config{Workers: 1, Coordinator: coord})

	// The worker is a plain standalone server executing leased cells.
	worker := &fabric.Worker{
		Client: &fabric.Client{BaseURL: ts.URL},
		ID:     "w1",
	}
	wsrv := New(Config{Workers: 1, FabricWorker: worker})
	worker.Exec = wsrv.RunJobs
	go worker.Run(ctx)
	waitForCond(t, func() bool { return coord.Metrics().WorkersLive >= 1 })

	code, run, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK {
		t.Fatalf("POST via coordinator: code %d", code)
	}
	if run.Status != StatusDone || len(run.Results) != 1 || run.Results[0].Result == nil {
		t.Fatalf("coordinator run malformed: %+v", run)
	}
	if run.Results[0].Result.IPC <= 0 {
		t.Errorf("worker-executed cell has IPC %v", run.Results[0].Result.IPC)
	}

	m := coord.Metrics()
	if m.CellsCompleted != 1 || m.CellsLocal != 0 {
		t.Errorf("cell did not execute on the worker: %+v", m)
	}

	code, repeat, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK || repeat.Status != StatusDone || repeat.CacheHits != 1 {
		t.Fatalf("repeated run: code %d, status %s, %d cache hits, want done with 1",
			code, repeat.Status, repeat.CacheHits)
	}
	if m := coord.Metrics(); m.CellsCompleted != 1 || m.CellsLocal != 0 {
		t.Errorf("repeated cell left the coordinator's cache: %+v", m)
	}

	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		`simserved_fabric_workers{state="live"} 1`,
		`simserved_fabric_cells_total{source="worker"} 1`,
		`simserved_fabric_retry_mismatches_total 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "simserved_fabric_lease_grants_total") {
		t.Error("coordinator /metrics renders a worker's lease grant counters")
	}

	// The worker counts the lease grant it received and the cell it carried.
	rec := httptest.NewRecorder()
	wsrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"simserved_fabric_lease_grants_total 1\n",
		"simserved_fabric_leased_cells_total 1\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("worker /metrics missing %q", want)
		}
	}
}

// TestCoordinatorRunsOnParallelismWorkers: a coordinator-mode run hands
// the runner the daemon's Parallelism, not one worker per cell, so the
// cells a worker-less fleet hands back never all simulate at once.
func TestCoordinatorRunsOnParallelismWorkers(t *testing.T) {
	var got runner.Options
	origRun := runnerRun
	runnerRun = func(ctx context.Context, jobs []runner.Job, opts runner.Options) ([]runner.Outcome, error) {
		got = opts
		return runner.Run(ctx, jobs, opts)
	}
	t.Cleanup(func() { runnerRun = origRun })

	coord := fabric.NewCoordinator(0)
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 2, Coordinator: coord})
	body := `{"configs":["SIE","DIE"],"benchmarks":["gzip","bzip2","mesa"],"insns":2000}`
	code, run, _ := postRun(t, ts.URL, body)
	if code != http.StatusOK || run.Status != StatusDone || len(run.Results) != 6 {
		t.Fatalf("POST: code %d, run %+v", code, run)
	}
	if got.Execute == nil || got.Parallelism != 2 {
		t.Errorf("runner got Parallelism %d (Execute set: %t), want 2 with the coordinator's seam",
			got.Parallelism, got.Execute != nil)
	}
	if m := coord.Metrics(); m.CellsLocal != 6 {
		t.Errorf("CellsLocal = %d, want all 6 cells handed back by the worker-less fleet", m.CellsLocal)
	}
}

// waitForCond polls cond for up to 5s.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
