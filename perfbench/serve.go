//go:build !perfbench_legacy

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

const (
	// serveInsns is the per-cell budget. A miss mostly waits for the
	// worker's next poll, and a run's median grid-miss latency sits near
	// 540 ms in most runs and above it in some. At 20k, the service smoke
	// test's size, those runs landed at 820-880 ms (ten-seed spread 0.17);
	// at 5k, at 580-720 ms (0.08-0.10).
	serveInsns     = 5_000
	serveFaultRate = 1e-4
	serveLeaseTTL  = "2s" // lease lifetime; the idle worker polls every quarter of it
	serveSetups    = 15   // daemon pairs started per run; setup_s is their median
	serveDigestN   = 6    // the client's first requests enter the result digest
)

// serveProfiles are the profiles serve requests draw from, pinned by name.
var serveProfiles = []string{"gzip", "gcc", "mcf", "bzip2", "mesa", "ammp"}

func init() { workloads["serve"] = runServe }

// Request kinds of the serve mix.
const (
	kindGrid  = "grid"  // fresh workload seed: capture, lease, simulate
	kindFault = "fault" // fresh fault seed: one spec over two profiles, never batchable
	kindHit   = "hit"   // repeat of one of the client's earlier misses
)

// serveCycle is the client's fixed request order, the same for every
// seed. Every miss is followed by one repeat, as the service smoke test
// posts its request twice; grid and fault misses alternate.
var serveCycle = []string{kindGrid, kindHit, kindFault, kindHit}

// fleet is one coordinator plus one worker daemon.
type fleet struct {
	coord, worker *exec.Cmd
	base          string // coordinator URL
	dir           string
	logs          *syncBuffer
	stopped       bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// syncBuffer is a bytes.Buffer safe for the two daemons' output copiers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b.Len() > 1<<20 {
		return len(p), nil // keep the first megabyte of logs
	}
	return s.b.Write(p)
}

// startFleet starts a coordinator with a fresh journal directory and one
// worker, and returns once /readyz answers and the worker has polled.
func startFleet(e *env, tag string) (*fleet, time.Duration, error) {
	bin, err := filepath.Abs(e.simserved)
	if err != nil {
		return nil, 0, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, 0, fmt.Errorf("simserved binary: %w (run.sh builds it)", err)
	}
	dir := filepath.Join(e.outDir, fmt.Sprintf("serve-%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	cport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	wport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logs := &syncBuffer{}
	f := &fleet{base: fmt.Sprintf("http://127.0.0.1:%d", cport), dir: dir, logs: logs}
	start := time.Now()
	// The worker starts once the coordinator answers, as in a deployment;
	// started together, the worker's first lease call can lose the race
	// and back off, which makes set-up time bimodal.
	f.coord = exec.Command(bin, "-role", "coordinator", "-addr", fmt.Sprintf("127.0.0.1:%d", cport),
		"-data-dir", filepath.Join(dir, "data"), "-lease-ttl", serveLeaseTTL)
	if err := f.launch(f.coord, f.coordReady); err != nil {
		return nil, 0, err
	}
	f.worker = exec.Command(bin, "-role", "worker", "-addr", fmt.Sprintf("127.0.0.1:%d", wport),
		"-peers", f.base, "-worker-id", "w1")
	if err := f.launch(f.worker, f.workerLive); err != nil {
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// launch starts one daemon and waits until ready reports true.
func (f *fleet) launch(c *exec.Cmd, ready func() bool) error {
	c.Stdout, c.Stderr = f.logs, f.logs
	if err := c.Start(); err != nil {
		f.stop()
		return fmt.Errorf("starting simserved: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			f.stop()
			return fmt.Errorf("simserved not ready after 30s; logs:\n%s", f.logs)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// probeClient bounds the readiness and /metrics probes, so a daemon that
// accepts a connection and never answers cannot hang the run.
var probeClient = &http.Client{Timeout: 5 * time.Second}

// coordReady reports the coordinator's /readyz answering 200.
func (f *fleet) coordReady() bool {
	resp, err := probeClient.Get(f.base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// workerLive reports that the worker has polled the coordinator.
func (f *fleet) workerLive() bool {
	m, err := scrape(f.base)
	return err == nil && m[`simserved_fabric_workers{state="live"}`] >= 1
}

// stop sends SIGTERM to both daemons (worker first), waits for them to
// exit, and returns their combined peak resident memory in MB.
func (f *fleet) stop() float64 {
	if f.stopped {
		return 0
	}
	f.stopped = true
	var rss float64
	for _, c := range []*exec.Cmd{f.worker, f.coord} {
		if c == nil || c.Process == nil {
			continue
		}
		_ = c.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = c.Wait() // exit status after SIGTERM carries no information
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss += float64(ru.Maxrss) / 1024
		}
	}
	os.RemoveAll(f.dir)
	return rss
}

// scrape reads a daemon's /metrics into a map keyed by series.
func scrape(base string) (map[string]float64, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serveRequest is one request of the client's stream.
type serveRequest struct {
	k        int
	kind     string
	body     []byte
	repeatOf int // index in the client's history of the miss being repeated
}

// cellWire is api.CellResult with the simulated result kept verbatim, so
// hit-versus-miss comparison is byte-exact.
type cellWire struct {
	Bench    string          `json:"bench"`
	Config   string          `json:"config"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type runWire struct {
	Status  string     `json:"status"`
	Error   string     `json:"error,omitempty"`
	Results []cellWire `json:"results"`
}

// served is one completed request.
type served struct {
	req      serveRequest
	latency  time.Duration
	bytes    int
	run      runWire
	rejected bool
	err      error
}

// client generates request k from the seed alone, so every run with one
// seed sends the same stream.
type client struct {
	seed    uint64
	rng     *rand.Rand
	history []served // completed misses, repeat candidates
}

func newClient(seed uint64) *client {
	return &client{seed: seed, rng: rand.New(rand.NewPCG(seed, 1))}
}

func (c *client) next(k int) serveRequest {
	kind := serveCycle[k%len(serveCycle)]
	if kind == kindHit && len(c.history) == 0 {
		kind = kindGrid
	}
	r := serveRequest{k: k, kind: kind, repeatOf: -1}
	unique := (c.seed<<24 ^ uint64(k)) + 1
	var req api.RunRequest
	switch kind {
	case kindGrid:
		req = api.RunRequest{Modes: []string{"DIE", "DIE-IRB"}, Benchmarks: []string{serveProfiles[c.rng.IntN(len(serveProfiles))]},
			Insns: serveInsns, Seed: unique, Verify: true}
	case kindFault:
		a := c.rng.IntN(len(serveProfiles))
		b := (a + 1 + c.rng.IntN(len(serveProfiles)-1)) % len(serveProfiles)
		req = api.RunRequest{Modes: []string{"DIE-IRB"}, Benchmarks: []string{serveProfiles[a], serveProfiles[b]},
			Insns: serveInsns, Seed: c.seed, Verify: true,
			Fault: &api.FaultSpec{Site: "fu", Rate: serveFaultRate, Seed: unique}}
	default:
		r.repeatOf = c.rng.IntN(len(c.history))
		r.body = c.history[r.repeatOf].req.body
		return r
	}
	// Marshalling a RunRequest of strings and numbers cannot fail.
	r.body, _ = json.Marshal(req)
	return r
}

// post sends one run request and decodes the response.
func post(hc *http.Client, base string, r serveRequest) served {
	s := served{req: r}
	start := time.Now()
	resp, err := hc.Post(base+"/v1/runs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(start)
	s.bytes = len(data)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode == http.StatusTooManyRequests:
		s.rejected = true
		s.err = fmt.Errorf("rejected (429)")
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		if err := json.Unmarshal(data, &s.run); err != nil {
			s.err = fmt.Errorf("decoding run: %w", err)
		}
	}
	return s
}

// checkServed applies the output checks to one response: the run is
// done, no cell failed, no fault escaped silently, and a repeat is served
// from the cache bit-identically to the miss that filled it.
func (c *client) checkServed(s served) error {
	if s.err != nil {
		return s.err
	}
	if s.run.Status != api.StatusDone {
		return fmt.Errorf("run status %q: %s", s.run.Status, s.run.Error)
	}
	for _, cell := range s.run.Results {
		if cell.Error != "" {
			return fmt.Errorf("%s on %s: %s", cell.Bench, cell.Config, cell.Error)
		}
		var res sim.Result
		if err := json.Unmarshal(cell.Result, &res); err != nil {
			return fmt.Errorf("%s on %s: decoding result: %w", cell.Bench, cell.Config, err)
		}
		if res.Core.FaultsSilent != 0 {
			return fmt.Errorf("%s on %s: %d silent corruptions", cell.Bench, cell.Config, res.Core.FaultsSilent)
		}
	}
	if s.req.repeatOf < 0 {
		return nil
	}
	miss := c.history[s.req.repeatOf].run.Results
	if len(miss) != len(s.run.Results) {
		return fmt.Errorf("repeat returned %d cells, the miss %d", len(s.run.Results), len(miss))
	}
	for i, cell := range s.run.Results {
		if !cell.CacheHit {
			return fmt.Errorf("repeat cell %d was simulated again, not served from the cache", i)
		}
		if !bytes.Equal(cell.Result, miss[i].Result) {
			return fmt.Errorf("repeat cell %d differs from the miss that filled the cache", i)
		}
	}
	return nil
}

// serveLoad is what one closed-loop load phase measured.
type serveLoad struct {
	all       []served
	elapsed   time.Duration
	attempted int
	failed    int
	failures  []string
	digest    string
	coverage  [2]float64 // detected, live faults over the fault requests
	// missInsns and lastMiss are the instructions simulated for misses
	// and the time the last miss completed, for insnsPerSecond.
	missInsns uint64
	lastMiss  time.Duration
}

// insnsPerSecond is the simulated instructions per second up to the last
// miss, so a run that happens to end on a hit does not dilute the rate.
func (l *serveLoad) insnsPerSecond() float64 {
	return ratio(float64(l.missInsns), l.lastMiss.Seconds())
}

// load drives one closed-loop client against base for budget, calling
// onDone after each request.
func load(base string, seed uint64, budget time.Duration, onDone func(served)) *serveLoad {
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	l := &serveLoad{}
	c := newClient(seed)
	var dig bytes.Buffer
	start := time.Now()
	for k := 0; time.Since(start) < budget; k++ {
		r := c.next(k)
		s := post(hc, base, r)
		err := c.checkServed(s)
		l.attempted++
		switch {
		case err != nil:
			l.failed++
			if len(l.failures) < 8 {
				l.failures = append(l.failures, fmt.Sprintf("request %d (%s): %v", k, r.kind, err))
			}
		case r.repeatOf < 0:
			c.history = append(c.history, s)
			l.lastMiss = time.Since(start)
			for _, cell := range s.run.Results {
				var res sim.Result
				_ = json.Unmarshal(cell.Result, &res) // decoded once already by checkServed
				l.missInsns += res.Core.Committed
				if r.kind == kindFault {
					l.coverage[0] += float64(res.Core.FaultsDetected)
					l.coverage[1] += float64(res.Core.FaultsDetected + res.Core.FaultsMasked + res.Core.FaultsSilent)
				}
			}
		}
		if k < serveDigestN && err == nil {
			for _, cell := range s.run.Results {
				fmt.Fprintf(&dig, "%d %s %s %s\n", k, cell.Bench, cell.Config, cell.Result)
			}
		}
		l.all = append(l.all, s)
		if onDone != nil {
			onDone(s)
		}
	}
	l.elapsed = time.Since(start)
	l.digest = digestBytes(dig.Bytes())
	return l
}

// latencies returns the latencies in ms of the successful requests of
// the given kinds.
func (l *serveLoad) latencies(kinds ...string) []float64 {
	var out []float64
	for _, s := range l.all {
		for _, k := range kinds {
			if s.err == nil && s.req.kind == k {
				out = append(out, float64(s.latency)/float64(time.Millisecond))
			}
		}
	}
	return out
}

// runServeLoad starts serveSetups fleets (stopping all but the last),
// drives the load against the last and stops it.
func runServeLoad(e *env, budget time.Duration, tag string, onDone func(served), atEnd func(f *fleet) error) (*serveLoad, []float64, float64, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < serveSetups; i++ {
		var took time.Duration
		var err error
		f, took, err = startFleet(e, fmt.Sprintf("%s%d", tag, i))
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, took.Seconds())
		if i < serveSetups-1 {
			f.stop()
		}
	}
	defer f.stop()
	l := load(f.base, e.seed, budget, onDone)
	if atEnd != nil {
		if err := atEnd(f); err != nil {
			return nil, nil, 0, err
		}
	}
	rss := f.stop()
	return l, setups, rss, nil
}

// serveEndToEnd folds one load phase into the end-to-end metrics.
func serveEndToEnd(l *serveLoad, setups []float64, rss float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(setups),
		"insns_per_s":    l.insnsPerSecond(),
		"latency_ms_p50": median(l.latencies(kindGrid)),
		"peak_rss_mb":    rss,
		"ok_share":       1 - ratio(float64(l.failed), float64(l.attempted)),
	}
}

func runServe(e *env) (*outcome, error) {
	if e.trace {
		return traceServe(e)
	}
	l, setups, rss, err := runServeLoad(e, e.seconds, "u", nil, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: l.attempted, failed: l.failed, failures: l.failures, digest: l.digest}
	o.metrics = serveEndToEnd(l, setups, rss)
	hits, misses := l.latencies(kindHit), l.latencies(kindGrid, kindFault)
	o.report = append(o.report,
		reportLine{"setup_s", o.metrics["setup_s"], "s", fmt.Sprintf("median of %d coordinator+worker start-ups", len(setups))},
		reportLine{"insns_per_s", o.metrics["insns_per_s"], "insn/s", "simulated on misses, per second of load"},
		reportLine{"latency_ms_p50", o.metrics["latency_ms_p50"], "ms", "fresh grid requests"},
		reportLine{"peak_rss_mb", rss, "MB", "coordinator + worker"},
		reportLine{"failed_share", ratio(float64(l.failed), float64(l.attempted)), "share", fmt.Sprintf("%d of %d requests", l.failed, l.attempted)},
		reportLine{"hit_ms_p50", median(hits), "ms", fmt.Sprintf("%d hits", len(hits))},
		reportLine{"hit_ms_p90", quantile(hits, 0.9), "ms", ""},
		reportLine{"miss_ms_p50", median(misses), "ms", fmt.Sprintf("%d misses", len(misses))},
		reportLine{"miss_ms_p90", quantile(misses, 0.9), "ms", ""},
		reportLine{"req_per_s", ratio(float64(l.attempted-l.failed), l.elapsed.Seconds()), "1/s", "one closed-loop client"},
		reportLine{"coverage_pct", 100 * ratio(l.coverage[0], l.coverage[1]), "%", "fault requests"},
	)
	return o, nil
}

// digestBytes hashes b.
func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

// traceServe is the traced run of the serve workload: an untraced load
// phase for half the budget, then a load phase recording a span per
// request, followed by the layer measurements taken from outside: the
// coordinator's /metrics, timed fabric.Journal appends of serve-sized
// records, and the in-process time of the cells each miss carried.
func traceServe(e *env) (*outcome, error) {
	half := e.seconds / 2
	ul, usetups, urss, err := runServeLoad(e, half, "u", nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var met map[string]float64
	record := func(s served) {
		tr.record(0, "serve."+s.req.kind, fmt.Sprintf("req-%d", s.req.k), time.Now().Add(-s.latency), s.latency)
	}
	tl, tsetups, trss, err := runServeLoad(e, e.seconds-half, "t", record, func(f *fleet) error {
		var err error
		met, err = scrape(f.base)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{
		attempted: ul.attempted + tl.attempted,
		failed:    ul.failed + tl.failed,
		failures:  append(ul.failures, tl.failures...),
		digest:    tl.digest,
		metrics:   map[string]float64{},
	}
	if ul.digest != tl.digest {
		o.fail("the two load phases served different results (digest %s vs %s)", ul.digest, tl.digest)
	}
	m := o.metrics
	addOverhead(m, serveEndToEnd(tl, tsetups, trss), serveEndToEnd(ul, usetups, urss))

	hits, misses := tl.latencies(kindHit), tl.latencies(kindGrid, kindFault)
	m["hit_ms_p50"], m["hit_ms_p90"] = median(hits), quantile(hits, 0.9)
	m["miss_ms_p50"], m["miss_ms_p90"] = median(misses), quantile(misses, 0.9)
	m["req_per_s"] = ratio(float64(tl.attempted-tl.failed), tl.elapsed.Seconds())
	m["coverage_pct"] = 100 * ratio(tl.coverage[0], tl.coverage[1])
	var respBytes, rejected float64
	for _, s := range tl.all {
		respBytes += float64(s.bytes)
		if s.rejected {
			rejected++
		}
	}
	m["service.response_kb"] = ratio(respBytes, float64(len(tl.all))) / 1024
	m["service.rejected"] = rejected
	m["service.run_ms_p50"] = 1000 * met[`simserved_run_latency_seconds{quantile="0.5"}`]
	m["service.cache_hit_share"] = ratio(met["simserved_cache_hits_total"],
		met["simserved_cache_hits_total"]+met["simserved_cache_misses_total"])
	m["fabric.lease_expiries"] = met["simserved_fabric_lease_expiries_total"]
	m["fabric.cells_retried"] = met["simserved_fabric_cells_retried_total"]

	appendP50, err := timeJournalAppends(e, tl, tr)
	if err != nil {
		return nil, err
	}
	m["fabric.journal_append_ms_p50"] = appendP50
	overhead, err := missOverhead(tl, tr, o)
	if err != nil {
		return nil, err
	}
	m["fabric.miss_overhead_ms_p50"] = overhead
	m["failed_share"] = ratio(float64(o.failed), float64(o.attempted))
	zeroFill(m, gridLayers)
	for _, n := range nsPerCycleNames {
		m["core.ns_per_cycle."+n] = 0
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.report = append(o.report, reportLine{"spans", float64(len(tr.spans)), "count", path})
	return o, nil
}

// journalAppends is how many records timeJournalAppends writes.
const journalAppends = 200

// timeJournalAppends appends cell records carrying served results to a
// fresh journal, as the coordinator does for every cell of every run,
// and returns the median append time in ms.
func timeJournalAppends(e *env, l *serveLoad, tr *tracer) (float64, error) {
	var results []*sim.Result
	for _, s := range l.all {
		for _, cell := range s.run.Results {
			var res sim.Result
			if s.err == nil && json.Unmarshal(cell.Result, &res) == nil {
				results = append(results, &res)
			}
		}
	}
	if len(results) == 0 {
		return 0, fmt.Errorf("no served result to journal")
	}
	dir := filepath.Join(e.outDir, fmt.Sprintf("journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	j, _, _, err := fabric.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	var ms []float64
	for i := 0; i < journalAppends; i++ {
		rec := fabric.Record{Type: fabric.RecCell, RunID: "bench", Index: i,
			Key: fmt.Sprintf("%064x", i), Result: results[i%len(results)]}
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return 0, err
		}
		d := time.Since(start)
		tr.record(0, "fabric.journal_append", fmt.Sprintf("record-%d", i), start, d)
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return median(ms), nil
}

// missOverheadRequests bounds how many misses are re-run in-process.
const missOverheadRequests = 12

// missOverhead re-runs the cells of the first misses in-process — trace
// capture plus sim.RunContext, what the worker does for them — and
// returns the median of each miss's latency minus that time, in ms. The
// in-process results must equal the served ones.
func missOverhead(l *serveLoad, tr *tracer, o *outcome) (float64, error) {
	var over []float64
	for _, s := range l.all {
		if len(over) == missOverheadRequests {
			break
		}
		if s.err != nil || s.req.repeatOf >= 0 {
			continue
		}
		var req api.RunRequest
		if err := json.Unmarshal(s.req.body, &req); err != nil {
			return 0, err
		}
		jobs, err := requestJobs(req)
		if err != nil {
			return 0, err
		}
		id := fmt.Sprintf("req-%d", s.req.k)
		start := time.Now()
		if err := runner.AttachTraces(jobs); err != nil {
			return 0, err
		}
		results := make([]sim.Result, len(jobs))
		for i, j := range jobs {
			res, err := sim.RunContext(context.Background(), j.Name, j.Config, j.Profile, j.Opts)
			if err != nil {
				return 0, err
			}
			results[i] = res
		}
		d := time.Since(start)
		tr.record(0, "sim.run", id, start, d)
		o.attempted++
		if err := sameResults(results, s.run.Results); err != nil {
			o.fail("%s: in-process re-run: %v", id, err)
		}
		over = append(over, float64(s.latency-d)/float64(time.Millisecond))
	}
	return median(over), nil
}

// requestJobs rebuilds the cells of a run request the way the service
// does: benchmark-major, modes as columns, a fresh injector per cell.
func requestJobs(req api.RunRequest) ([]runner.Job, error) {
	profiles, err := profilesByName(req.Benchmarks)
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, p := range profiles {
		for _, mode := range req.Modes {
			cfg, err := modeBase(mode)
			if err != nil {
				return nil, err
			}
			opts := sim.Options{Insns: req.Insns, Seed: req.Seed, Verify: req.Verify}
			if f := req.Fault; f != nil {
				inj, err := fault.New(fault.Config{Site: fault.Site(f.Site), Rate: f.Rate, Seed: f.Seed, MaxFaults: f.MaxFaults})
				if err != nil {
					return nil, err
				}
				opts.Injector = inj
			}
			jobs = append(jobs, runner.Job{Name: mode, Config: cfg, Profile: p, Opts: opts})
		}
	}
	return jobs, nil
}

// sameResults compares in-process results with served ones, as JSON.
func sameResults(local []sim.Result, served []cellWire) error {
	if len(local) != len(served) {
		return fmt.Errorf("%d cells in-process, %d served", len(local), len(served))
	}
	for i := range local {
		want, err := json.Marshal(local[i])
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, served[i].Result); err != nil {
			return err
		}
		if !bytes.Equal(want, got.Bytes()) {
			return fmt.Errorf("cell %d (%s on %s) differs from the served result", i, served[i].Bench, served[i].Config)
		}
	}
	return nil
}
