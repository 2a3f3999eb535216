package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/runner"
	"repro/internal/service/api"
)

// StatusError is a non-2xx coordinator response that carries no
// Retry-After guidance.
type StatusError struct {
	Path   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fabric: %s: status %d: %s", e.Path, e.Status, e.Msg)
}

// RetryAfterError is a 429/503 coordinator response: the server asked
// the caller to come back after Delay. The worker client honors it in
// place of its own backoff schedule.
type RetryAfterError struct {
	Status int
	Delay  time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("fabric: coordinator busy (status %d), retry after %v", e.Status, e.Delay)
}

// Client speaks the coordinator's lease protocol. Its transport is
// injectable, which is how the chaos tests put a flaky network between
// worker and coordinator.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://coord:8344".
	BaseURL string
	// HTTPClient performs the requests (nil = http.DefaultClient).
	HTTPClient *http.Client
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return http.DefaultClient
}

// post sends one JSON round trip and decodes the response into out.
func (cl *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fabric: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("fabric: reading %s response: %w", path, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		delay, ok := backoff.ParseRetryAfter(resp.Header.Get("Retry-After"))
		if !ok {
			delay = time.Second
		}
		return &RetryAfterError{Status: resp.StatusCode, Delay: delay}
	default:
		return &StatusError{Path: path, Status: resp.StatusCode, Msg: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("fabric: decoding %s response: %w", path, err)
	}
	return nil
}

// Lease asks the coordinator for a batch of cells.
func (cl *Client) Lease(ctx context.Context, req api.LeaseRequest) (api.LeaseResponse, error) {
	var resp api.LeaseResponse
	err := cl.post(ctx, "/v1/lease", req, &resp)
	return resp, err
}

// Heartbeat refreshes the worker's liveness, which keeps its cells.
func (cl *Client) Heartbeat(ctx context.Context, req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	var resp api.HeartbeatResponse
	err := cl.post(ctx, "/v1/heartbeat", req, &resp)
	return resp, err
}

// Complete reports a batch of finished cells.
func (cl *Client) Complete(ctx context.Context, req api.CompleteRequest) (api.CompleteResponse, error) {
	var resp api.CompleteResponse
	err := cl.post(ctx, "/v1/complete", req, &resp)
	return resp, err
}

// Worker is the pull loop a worker daemon runs against a coordinator:
// lease a batch of cells, heartbeat while executing them, report the
// completions, repeat. An idle worker's lease call is held at the
// coordinator until there is work, so it asks again as soon as a reply
// comes back empty. Transient coordinator failures back off with the
// shared jittered schedule (honoring an explicit Retry-After when the
// server sends one); a worker that cannot report a completion just asks
// for its next grant, which re-queues the unreported cells — losing a
// worker never loses a cell.
type Worker struct {
	// Client reaches the coordinator.
	Client *Client
	// ID is this worker's stable identity on the fabric.
	ID string
	// Exec executes a batch of rebuilt jobs locally and returns one
	// outcome per job, in order. The daemon wires the standalone
	// service's grid path (shared trace capture, content-addressed
	// cache, batch planner) in here.
	Exec func(ctx context.Context, jobs []runner.Job) []runner.Outcome
	// MaxCells caps the cells requested per lease (0 = the coordinator's
	// default batch).
	MaxCells int
	// OnError, when non-nil, observes transient loop errors (logging
	// seam; the loop always keeps going).
	OnError func(error)

	// grants counts the non-empty lease replies received and granted the
	// cells they carried (each cell is its own lease at the coordinator).
	grants, granted atomic.Uint64
}

// Grants reports the lease grants this worker has received and the cells
// they carried; their ratio is the cells each grant brought.
func (w *Worker) Grants() (grants, cells uint64) {
	return w.grants.Load(), w.granted.Load()
}

// completeAttempts bounds the delivery retries for one completion batch
// before the worker abandons it to the lost-lease path.
const completeAttempts = 5

// Run pulls and executes work until ctx ends; it always returns ctx's
// error.
func (w *Worker) Run(ctx context.Context) error {
	rng := rand.New(rand.NewPCG(1, 0x77ecc0))
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.Client.Lease(ctx, api.LeaseRequest{Worker: w.ID, Max: w.MaxCells})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.observe(err)
			failures++
			if !sleepCtx(ctx, retryDelay(err, failures-1, rng)) {
				return ctx.Err()
			}
			continue
		}
		failures = 0
		if len(resp.Leases) == 0 {
			continue // the empty reply was held at the coordinator
		}
		w.grants.Add(1)
		w.granted.Add(uint64(len(resp.Leases)))
		w.process(ctx, resp, rng)
	}
}

// retryDelay picks the wait after a failed coordinator call: the
// server's explicit Retry-After when it sent one, the shared backoff
// schedule otherwise.
func retryDelay(err error, attempt int, rng *rand.Rand) time.Duration {
	if ra, ok := err.(*RetryAfterError); ok {
		return ra.Delay
	}
	return backoff.Default().Delay(attempt, rng)
}

// process executes one leased batch under a heartbeat and reports it.
func (w *Worker) process(ctx context.Context, leased api.LeaseResponse, rng *rand.Rand) {
	jobs := make([]runner.Job, 0, len(leased.Leases))
	idx := make([]int, 0, len(leased.Leases)) // lease index per job
	comps := make([]api.CellCompletion, len(leased.Leases))
	for i, l := range leased.Leases {
		comps[i] = api.CellCompletion{LeaseID: l.ID, CellID: l.Cell.ID}
		job, err := JobFromCell(l.Cell)
		if err != nil {
			comps[i].Error = err.Error()
			continue
		}
		jobs = append(jobs, job)
		idx = append(idx, i)
	}

	// Heartbeat for as long as the batch executes, so the worker stays
	// live through a batch slower than the TTL. A heartbeat failure is
	// not fatal — the next one may get through before the worker is
	// declared dead.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := time.Duration(leased.HeartbeatMillis) * time.Millisecond
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if _, err := w.Client.Heartbeat(hbCtx, api.HeartbeatRequest{Worker: w.ID}); err != nil && hbCtx.Err() == nil {
					w.observe(err)
				}
			}
		}
	}()

	if len(jobs) > 0 {
		outs := w.Exec(ctx, jobs)
		for k, i := range idx {
			if k >= len(outs) {
				comps[i].Error = "fabric: worker executor returned short outcome list"
				continue
			}
			o := outs[k]
			if o.Err != nil {
				comps[i].Error = o.Err.Error()
				continue
			}
			res := o.Result
			comps[i].Result = &res
			comps[i].CacheHit = o.CacheHit
		}
	}
	stopHB()
	<-hbDone
	if ctx.Err() != nil {
		// Dying mid-batch: the dead-worker sweep, or a restarted
		// worker's first lease call, re-queues the cells.
		return
	}

	req := api.CompleteRequest{Worker: w.ID, Cells: comps}
	for attempt := 0; attempt < completeAttempts; attempt++ {
		if _, err := w.Client.Complete(ctx, req); err == nil {
			return
		} else {
			w.observe(err)
			if !sleepCtx(ctx, retryDelay(err, attempt, rng)) {
				return
			}
		}
	}
	// Delivery failed repeatedly: stop trying. The next lease call loses
	// the cells and the coordinator re-runs them — slower, never lost.
}

func (w *Worker) observe(err error) {
	if w.OnError != nil {
		w.OnError(err)
	}
}

// sleepCtx waits d or until ctx ends; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
