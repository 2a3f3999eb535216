package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// serveCoordinator exposes a coordinator's lease protocol over HTTP the
// way the service layer does, so worker loops can be tested end to end.
func serveCoordinator(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	handle := func(serve func(body []byte) (any, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var body []byte
			if r.Body != nil {
				b := make([]byte, 0, 1024)
				buf := make([]byte, 1024)
				for {
					n, err := r.Body.Read(buf)
					b = append(b, buf[:n]...)
					if err != nil {
						break
					}
				}
				body = b
			}
			resp, err := serve(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", handle(func(body []byte) (any, error) {
		var req api.LeaseRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Lease(req), nil
	}))
	mux.HandleFunc("/v1/heartbeat", handle(func(body []byte) (any, error) {
		var req api.HeartbeatRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Heartbeat(req), nil
	}))
	mux.HandleFunc("/v1/complete", handle(func(body []byte) (any, error) {
		var req api.CompleteRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Complete(req), nil
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// simExec is a worker executor running the real deterministic simulation.
func simExec(ctx context.Context, jobs []runner.Job) []runner.Outcome {
	outs := make([]runner.Outcome, len(jobs))
	for i, j := range jobs {
		outs[i].Result, outs[i].Err = sim.RunContext(ctx, j.Name, j.Config, j.Profile, j.Opts)
	}
	return outs
}

// TestWorkerFleetChaosE2E is the fabric's integration spine: a real grid
// runs through runner.Run's dispatch seam against a coordinator over
// HTTP, with one worker SIGKILL'd mid-batch (its context cut) and the
// survivor talking through a flaky chaos transport that drops requests,
// delays them and cuts response bodies. Every cell must still complete,
// bit-identical to the direct in-process run; the killed worker's lease
// must expire and retry (visible in the metrics); and no retry may
// diverge.
//
// The clock is frozen and the test runs the one sweep that matters
// itself, once the clock has moved past the victim's death and the
// survivor has been heard from since. A background sweeper on the wall
// clock would declare the survivor dead too whenever the race detector or
// the chaos transport kept it silent for three heartbeats.
func TestWorkerFleetChaosE2E(t *testing.T) {
	jobs := []runner.Job{
		testJob(t, "cell-a", 3000),
		testJob(t, "cell-b", 4000),
		testJob(t, "cell-c", 5000),
	}
	want := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		var err error
		want[i], err = sim.RunContext(context.Background(), j.Name, j.Config, j.Profile, j.Opts)
		if err != nil {
			t.Fatalf("direct run of %s: %v", j.Name, err)
		}
	}

	fc := freezeClock(t)
	c := NewCoordinator(400 * time.Millisecond) // workers heartbeat every 100 ms
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := serveCoordinator(t, c)

	// Victim worker: leases one cell, then hangs until killed.
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	victimHolds := make(chan struct{})
	victim := &Worker{
		Client:   &Client{BaseURL: srv.URL},
		ID:       "victim",
		MaxCells: 1,
		Exec: func(ctx context.Context, jobs []runner.Job) []runner.Outcome {
			close(victimHolds)
			<-ctx.Done() // killed mid-batch; never completes
			return make([]runner.Outcome, len(jobs))
		},
	}
	go victim.Run(victimCtx)

	// Give the victim time to register, then launch the grid through the
	// runner's dispatch seam.
	waitFor(t, func() bool { return c.Metrics().WorkersLive >= 1 })
	outsCh := make(chan []runner.Outcome, 1)
	errCh := make(chan error, 1)
	go func() {
		outs, err := runner.Run(ctx, jobs, runner.Options{
			Parallelism: len(jobs),
			Execute:     c.Execute,
		})
		outsCh <- outs
		errCh <- err
	}()

	// Once the victim holds a cell, kill it and start the survivor behind
	// a flaky transport.
	<-victimHolds
	kill()
	chaos := chaostest.New(7, http.DefaultTransport)
	chaos.DropProb = 0.2
	chaos.CutBodyProb = 0.1
	chaos.MaxLatency = 5 * time.Millisecond
	survivor := &Worker{
		Client: &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: chaos}},
		ID:     "survivor",
		Exec:   simExec,
	}
	go survivor.Run(ctx)

	// The victim dies by silence: past three heartbeats with no word
	// from it, while the survivor has spoken at the new time, the sweep
	// takes the victim's cell back for the survivor.
	fc.advance(deadBeats*c.beat + time.Millisecond)
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		w := c.workers["survivor"]
		return w != nil && w.lastSeen.Equal(fc.now())
	})
	c.Tick()

	var outs []runner.Outcome
	select {
	case outs = <-outsCh:
	case <-time.After(60 * time.Second):
		t.Fatalf("grid did not complete; metrics %+v", c.Metrics())
	}
	if err := <-errCh; err != nil {
		t.Fatalf("grid error: %v", err)
	}
	for i := range jobs {
		if outs[i].Err != nil {
			t.Fatalf("cell %s failed: %v", jobs[i].Name, outs[i].Err)
		}
		if !reflect.DeepEqual(outs[i].Result, want[i]) {
			t.Errorf("cell %s: fabric result differs from direct run", jobs[i].Name)
		}
	}

	m := c.Metrics()
	if m.LeaseExpiries == 0 || m.CellsRetried == 0 {
		t.Errorf("killed worker left no expiry/retry trace: %+v", m)
	}
	if m.RetryMismatches != 0 {
		t.Errorf("retried cells were not bit-identical: %+v", m)
	}
	if m.CellsLocal != 0 {
		t.Errorf("%d cells degraded to local under a live fleet", m.CellsLocal)
	}
	drops, cuts, delays, sent := chaos.Counts()
	t.Logf("chaos faults injected: %d drops, %d cuts, %d delays over %d requests; metrics %+v",
		drops, cuts, delays, sent, m)
}

// TestClientHonorsRetryAfter: a 429 with an explicit Retry-After becomes
// a RetryAfterError, and retryDelay prefers it over the backoff schedule.
func TestClientHonorsRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	_, err := cl.Lease(context.Background(), api.LeaseRequest{Worker: "w"})
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("429 surfaced as %v, want *RetryAfterError", err)
	}
	if ra.Delay != 3*time.Second {
		t.Errorf("Retry-After parsed as %v, want 3s", ra.Delay)
	}
	if d := retryDelay(err, 0, nil); d != 3*time.Second {
		t.Errorf("retryDelay ignored the server's Retry-After: %v", d)
	}
}

// TestClientStatusError: a plain failure carries the status and body.
func TestClientStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusBadRequest)
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	_, err := cl.Heartbeat(context.Background(), api.HeartbeatRequest{Worker: "w"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("400 surfaced as %v, want *StatusError", err)
	}
}

// TestWorkerCountsLeaseGrants: a worker counts each non-empty lease reply
// as one grant and every cell it carried, including a cell it cannot
// rebuild; empty replies count nothing, and one is followed by the next
// call at once.
func TestWorkerCountsLeaseGrants(t *testing.T) {
	var (
		mu       sync.Mutex
		polls    []time.Time
		reported []api.CellCompletion
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		polls = append(polls, time.Now())
		n := len(polls)
		mu.Unlock()
		// Reading the body lets the server notice the worker hang up.
		io.Copy(io.Discard, r.Body)
		var resp api.LeaseResponse // the first reply is empty
		switch {
		case n >= 3:
			<-r.Context().Done() // held until the worker stops
			return
		case n == 2:
			resp.Leases = []api.Lease{
				{ID: "lease-1", Cell: api.Cell{ID: 1, Name: "SIE", Insns: 100}},
				{ID: "lease-2", Cell: api.Cell{ID: 2, Name: "SIE", Insns: 200}},
				{ID: "lease-3", Cell: api.Cell{ID: 3, Name: "SIE",
					Fault: &api.FaultSpec{Site: "nonesuch", Rate: 1e-3}}},
			}
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req api.CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		reported = append(reported, req.Cells...)
		mu.Unlock()
		json.NewEncoder(w).Encode(api.CompleteResponse{Accepted: len(req.Cells)})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	w := &Worker{Client: &Client{BaseURL: srv.URL}, ID: "w1",
		Exec: func(_ context.Context, jobs []runner.Job) []runner.Outcome { return make([]runner.Outcome, len(jobs)) }}
	go func() { done <- w.Run(ctx) }()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(polls) >= 3 && len(reported) == 3
	})
	cancel()
	<-done

	if gap := polls[1].Sub(polls[0]); gap > 100*time.Millisecond {
		t.Errorf("worker waited %v after an empty reply, want the next call at once", gap)
	}
	if grants, cells := w.Grants(); grants != 1 || cells != 3 {
		t.Errorf("Grants() = %d grants, %d cells; want 1 grant of 3 cells", grants, cells)
	}
	if reported[2].Error == "" {
		t.Error("the unrebuildable cell was reported without an error")
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
