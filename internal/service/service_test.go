package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRun posts a run request body and decodes the response.
func postRun(t *testing.T, url, body string) (int, Run, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var run Run
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &run); err != nil {
			t.Fatalf("decoding run: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, run, resp.Header
}

// TestModesEndpoint: GET /v1/modes lists every registered mode with its
// capability summary and knobs, straight from the core registry.
func TestModesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/modes")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/modes: status %d", code)
	}
	var resp struct {
		Modes []struct {
			Name    string `json:"name"`
			Streams int    `json:"streams"`
			Compare string `json:"compare"`
			Detects bool   `json:"detects"`
			Knobs   []struct {
				Name string `json:"name"`
				Doc  string `json:"doc"`
			} `json:"knobs"`
		} `json:"modes"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding: %v\n%s", err, body)
	}
	byName := map[string]int{}
	for i, m := range resp.Modes {
		byName[m.Name] = i
		if m.Streams < 1 || m.Compare == "" {
			t.Errorf("mode %q: incomplete descriptor %+v", m.Name, m)
		}
	}
	for _, want := range []string{"SIE", "DIE", "DIE-IRB", "SIE-IRB", "REPLAY", "TMR"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("mode %q missing from /v1/modes", want)
		}
	}
	tmr := resp.Modes[byName["TMR"]]
	if !tmr.Detects || tmr.Streams != 3 || len(tmr.Knobs) == 0 {
		t.Errorf("TMR descriptor wrong: %+v", tmr)
	}
	if tmr.Knobs[0].Name != "vote-width" || tmr.Knobs[0].Doc == "" {
		t.Errorf("TMR knob wrong: %+v", tmr.Knobs)
	}
}

// TestRunRequestModes: the modes field resolves through the registry, and
// an unknown mode is a structured 400 listing the valid names.
func TestRunRequestModes(t *testing.T) {
	ctl := stubRunner(t)
	close(ctl.release)
	_, ts := newTestServer(t, Config{})

	code, run, _ := postRun(t, ts.URL, `{"modes":["SIE","TMR"],"benchmarks":["bzip2"],"insns":2000}`)
	if code != http.StatusOK {
		t.Fatalf("modes-only request: status %d", code)
	}
	if run.Cells != 2 {
		t.Fatalf("modes-only request expanded to %d cells, want 2", run.Cells)
	}

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"modes":["NMR-9"],"benchmarks":["bzip2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error      string   `json:"error"`
		ValidModes []string `json:"valid_modes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "NMR-9") {
		t.Errorf("error %q does not name the bad mode", e.Error)
	}
	if len(e.ValidModes) < 6 {
		t.Errorf("valid_modes %v does not list the registry", e.ValidModes)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// stubControl coordinates with a substituted grid runner: every
// invocation signals started and then blocks until release is closed or
// the run's context is cancelled.
type stubControl struct {
	started chan struct{}
	release chan struct{}
}

// stubRunner replaces the runner seam with a controllable fake so the
// backpressure, cancellation and drain paths can be exercised without
// burning simulation time. Restored on test cleanup; tests using it must
// not run in parallel.
func stubRunner(t *testing.T) *stubControl {
	t.Helper()
	ctl := &stubControl{started: make(chan struct{}, 16), release: make(chan struct{})}
	origRun := runnerRun
	runnerRun = func(ctx context.Context, jobs []runner.Job, _ runner.Options) ([]runner.Outcome, error) {
		ctl.started <- struct{}{}
		outs := make([]runner.Outcome, len(jobs))
		select {
		case <-ctl.release:
			for i := range outs {
				outs[i] = runner.Outcome{
					Job:    jobs[i],
					Result: sim.Result{Bench: jobs[i].Profile.Name, Config: jobs[i].Name},
				}
			}
			return outs, nil
		case <-ctx.Done():
			for i := range outs {
				outs[i] = runner.Outcome{Job: jobs[i], Err: ctx.Err()}
			}
			return outs, ctx.Err()
		}
	}
	t.Cleanup(func() { runnerRun = origRun })
	return ctl
}

const smallRun = `{"configs":["DIE-IRB"],"benchmarks":["gzip"],"insns":2000}`

// TestServiceCacheHitOnRepeat is the end-to-end memoization check: the
// same job posted twice simulates once, the repeat is served from the
// result cache bit-identically, both run records hold the cached result
// itself rather than copies, and the /metrics counters move to match.
func TestServiceCacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	code, first, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK {
		t.Fatalf("first POST: code %d", code)
	}
	if first.Status != StatusDone || first.Cells != 1 || first.CacheHits != 0 {
		t.Fatalf("first run: status=%s cells=%d hits=%d", first.Status, first.Cells, first.CacheHits)
	}
	if len(first.Results) != 1 || first.Results[0].CacheHit || first.Results[0].Result == nil {
		t.Fatalf("first run results malformed: %+v", first.Results)
	}
	if first.Results[0].Result.IPC <= 0 {
		t.Fatalf("first run IPC = %v, want > 0", first.Results[0].Result.IPC)
	}

	code, second, _ := postRun(t, ts.URL, smallRun)
	if code != http.StatusOK {
		t.Fatalf("second POST: code %d", code)
	}
	if second.Status != StatusDone || second.CacheHits != 1 {
		t.Fatalf("second run: status=%s hits=%d, want done with 1 cache hit", second.Status, second.CacheHits)
	}
	if !second.Results[0].CacheHit {
		t.Fatal("second run cell not marked as a cache hit")
	}
	if !reflect.DeepEqual(first.Results[0].Result, second.Results[0].Result) {
		t.Error("cached result differs from the simulated one")
	}
	rec1, _ := s.snapshotRun(first.ID)
	rec2, _ := s.snapshotRun(second.ID)
	if rec1.Results[0].Result != rec2.Results[0].Result {
		t.Error("the two run records hold separate copies of one cached result")
	}

	// The observability surface must reflect what just happened.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		`simserved_requests_total{route="POST /v1/runs",code="200"} 2`,
		`simserved_runs_total{status="done"} 2`,
		`simserved_cache_hits_total 1`,
		`simserved_cache_misses_total 1`,
		`simserved_cells_total{source="simulated"} 1`,
		`simserved_cells_total{source="cache"} 1`,
		`simserved_run_latency_seconds_count 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "simserved_fabric_") {
		t.Error("a standalone daemon's /metrics renders fabric counters")
	}

	// The run records stay retrievable afterwards.
	code, body := get(t, ts.URL+"/v1/runs/"+first.ID)
	if code != http.StatusOK || !strings.Contains(body, `"status": "done"`) {
		t.Errorf("GET run %s: code %d body %s", first.ID, code, body)
	}
}

// TestServiceBackpressure saturates the admission queue and checks the
// overflow request is refused with 429 + Retry-After while the admitted
// run still completes.
func TestServiceBackpressure(t *testing.T) {
	ctl := stubRunner(t)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	type result struct {
		code int
		run  Run
	}
	firstDone := make(chan result, 1)
	go func() {
		code, run, _ := postRun(t, ts.URL, smallRun)
		firstDone <- result{code, run}
	}()
	<-ctl.started // the first run now holds the only queue token

	code, _, hdr := postRun(t, ts.URL, smallRun)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(ctl.release)
	first := <-firstDone
	if first.code != http.StatusOK || first.run.Status != StatusDone {
		t.Fatalf("admitted run: code %d status %s, want 200 done", first.code, first.run.Status)
	}
}

// TestServiceClientDisconnect covers both cancellation points: a client
// vanishing mid-simulation cancels the in-flight run, and one vanishing
// while waiting for a slot cancels the queued run without it ever
// starting.
func TestServiceClientDisconnect(t *testing.T) {
	ctl := stubRunner(t)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	waitStatus := func(id, want string) {
		t.Helper()
		terminal := want == StatusDone || want == StatusFailed || want == StatusCancelled
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if run, ok := s.snapshotRun(id); ok && run.Status == want {
				if terminal && run.Finished == nil {
					t.Fatalf("run %s reached %s without a finish time", id, want)
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		run, _ := s.snapshotRun(id)
		t.Fatalf("run %s never reached %s (last: %+v)", id, want, run)
	}

	post := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(smallRun))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if resp != nil {
				resp.Body.Close()
			}
			done <- err
		}()
		return done
	}

	// First client: disconnects while its run is simulating.
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := post(ctx1)
	<-ctl.started
	// Second client: disconnects while queued behind the first. Wait
	// until the run is registered (and therefore parked on the slot
	// acquire) before pulling the plug, or the cancel can outrace the
	// request ever reaching the server.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := post(ctx2)
	waitStatus("run-000002", StatusQueued)

	cancel2()
	if err := <-done2; err == nil {
		t.Fatal("queued request returned without error despite cancellation")
	}
	waitStatus("run-000002", StatusCancelled)
	select {
	case <-ctl.started:
		t.Fatal("cancelled queued run was dispatched to the runner")
	default:
	}

	cancel1()
	if err := <-done1; err == nil {
		t.Fatal("in-flight request returned without error despite cancellation")
	}
	waitStatus("run-000001", StatusCancelled)
}

// TestServiceGracefulDrain checks BeginDrain semantics: new work is
// refused with 503, readiness fails, and the already-accepted run is
// allowed to finish.
func TestServiceGracefulDrain(t *testing.T) {
	ctl := stubRunner(t)
	s, ts := newTestServer(t, Config{Workers: 1})

	type result struct {
		code int
		run  Run
	}
	acceptedDone := make(chan result, 1)
	go func() {
		code, run, _ := postRun(t, ts.URL, smallRun)
		acceptedDone <- result{code, run}
	}()
	<-ctl.started

	s.BeginDrain()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: code %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining: code %d, want 200 (liveness is not readiness)", code)
	}
	code, _, hdr := postRun(t, ts.URL, smallRun)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: code %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}

	close(ctl.release)
	accepted := <-acceptedDone
	if accepted.code != http.StatusOK || accepted.run.Status != StatusDone {
		t.Fatalf("accepted run after drain: code %d status %s, want 200 done", accepted.code, accepted.run.Status)
	}
}

// TestServiceValidation walks the request-rejection paths.
func TestServiceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCells: 1})

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"configs":`, http.StatusBadRequest},
		{"no configs", `{}`, http.StatusBadRequest},
		{"unknown config", `{"configs":["no-such-machine"]}`, http.StatusBadRequest},
		{"unknown benchmark", `{"configs":["DIE"],"benchmarks":["no-such-bench"]}`, http.StatusBadRequest},
		{"bad fault site", `{"configs":["DIE"],"fault":{"site":"nowhere","rate":0.1}}`, http.StatusBadRequest},
		{"over cell budget", `{"configs":["DIE","SIE"],"benchmarks":["gzip"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if code, _, _ := postRun(t, ts.URL, c.body); code != c.want {
			t.Errorf("%s: code %d, want %d", c.name, code, c.want)
		}
	}

	if code, _ := get(t, ts.URL+"/v1/runs/run-999999"); code != http.StatusNotFound {
		t.Errorf("unknown run: code %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/no-such-exp"); code != http.StatusNotFound {
		t.Errorf("unknown experiment: code %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/config?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad experiment format: code %d, want 400", code)
	}
}

// TestTraceBudgetArithmetic: the service defaults and the CI-sized
// requests fit the trace budget; requests past it are refused, including
// values whose sum or product would wrap a uint64.
func TestTraceBudgetArithmetic(t *testing.T) {
	for _, c := range []struct {
		profiles    int
		insns, ff   uint64
		overBudget  bool
		description string
	}{
		{12, sim.DefaultInsns, 0, false, "service default"},
		{4, 500_000, 0, false, "CI smoke and fabric request"},
		{2, 5_000, 0, false, "benchmark serve request"},
		{1, maxTraceRecords, 0, false, "one profile at the limit"},
		{2, 1_000_000_000_000, 1 << 40, true, "huge budget"},
		{1, math.MaxUint64, 0, true, "insns near 2^64"},
		{1, 1_000, math.MaxUint64, true, "fast_forward near 2^64"},
		{2, 1 << 63, 1 << 63, true, "sum wraps to zero"},
		{1 << 8, 1 << 56, 0, true, "product wraps to zero"},
		{2, maxTraceRecords/2 + 1, 0, true, "just over the limit"},
	} {
		err := checkTraceBudget(c.profiles, c.insns, c.ff)
		if got := errors.Is(err, errOverBudget); got != c.overBudget {
			t.Errorf("%s: over budget = %v (err %v), want %v", c.description, got, err, c.overBudget)
		}
	}
}

// TestServiceTraceBudget: a request over the trace budget is refused
// with 413 on both endpoints before any simulation starts.
func TestServiceTraceBudget(t *testing.T) {
	origRun := runnerRun
	runnerRun = func(context.Context, []runner.Job, runner.Options) ([]runner.Outcome, error) {
		t.Error("an over-budget request reached the runner")
		return nil, context.Canceled
	}
	t.Cleanup(func() { runnerRun = origRun })
	_, ts := newTestServer(t, Config{Workers: 1})

	const near64 = "18446744073709551615"
	for _, body := range []string{
		`{"configs":["DIE"],"benchmarks":["gzip","bzip2"],"insns":1000000000000,"fast_forward":1099511627776}`,
		`{"configs":["DIE"],"benchmarks":["gzip"],"insns":` + near64 + `}`,
		`{"configs":["DIE"],"benchmarks":["gzip"],"insns":1000,"fast_forward":` + near64 + `}`,
		`{"configs":["DIE"],"benchmarks":["gzip","bzip2"],"insns":9223372036854775808,"fast_forward":9223372036854775808}`,
	} {
		if code, _, _ := postRun(t, ts.URL, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: code %d, want 413", body, code)
		}
	}
	for _, q := range []string{"insns=" + near64, "insns=9000000&bench=gzip,bzip2"} {
		if code, body := get(t, ts.URL+"/v1/experiments/headline?"+q); code != http.StatusRequestEntityTooLarge {
			t.Errorf("GET experiment ?%s: code %d, want 413: %s", q, code, body)
		}
	}
}

// TestServiceDiscovery checks the list endpoints a client scripts
// against.
func TestServiceDiscovery(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := get(t, ts.URL+"/v1/configs")
	if code != http.StatusOK {
		t.Fatalf("/v1/configs: code %d", code)
	}
	for _, name := range []string{"DIE-IRB", "SIE", "DIE-IRB-1024", "capture/value"} {
		if !strings.Contains(body, fmt.Sprintf("%q", name)) {
			t.Errorf("/v1/configs missing %q", name)
		}
	}

	code, body = get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK || !strings.Contains(body, `"headline"`) {
		t.Errorf("/v1/experiments: code %d body %s", code, body)
	}

	// The config experiment renders without simulating: a fast check of
	// the full experiment path including format negotiation.
	code, body = get(t, ts.URL+"/v1/experiments/config?format=csv")
	if code != http.StatusOK || body == "" {
		t.Errorf("/v1/experiments/config: code %d, empty=%t", code, body == "")
	}

	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: code %d body %q", code, body)
	}
	if code, _ = get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz: code %d", code)
	}
}
