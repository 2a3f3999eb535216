package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/backoff"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// This file is the service side of the sweep fabric: the coordinator's
// lease endpoints, the per-run server-sent event streams, the crash-safe
// run journal hooks, and the boot-time journal recovery that lets a
// restarted coordinator resume from its last completed cell.

// retryAfter renders a jittered Retry-After header value from the shared
// backoff helper. Jitter matters here for the same reason it does in the
// fabric's lease re-queue: a fleet of workers told a bare "1" all come
// back in the same second and collide again.
func (s *Server) retryAfter(base time.Duration) string {
	pol := backoff.Policy{Base: base, Cap: 2 * base, Factor: 1, Jitter: 0.5}
	s.rngMu.Lock()
	d := pol.Delay(0, s.rng)
	s.rngMu.Unlock()
	return backoff.RetryAfter(d)
}

// --- coordinator endpoints -------------------------------------------

// decodeInto decodes a bounded JSON body, answering 400 itself on
// failure.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

// handleLease is POST /v1/lease: workers pull batches of cells. An idle
// worker's call is held until a cell is enqueued or the hold elapses
// (Coordinator.LeaseWait); a disconnect or BeginDrain releases it early.
// A draining coordinator stops granting (the in-flight cells still
// complete through /v1/complete) and tells workers when to come back.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.refuseLease(w)
		return
	}
	var req api.LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "worker identity required")
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.drain, cancel)
	defer stop()
	resp := s.cfg.Coordinator.LeaseWait(ctx, req)
	if len(resp.Leases) == 0 && s.draining() {
		s.refuseLease(w)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// refuseLease answers a lease call during a drain.
func (s *Server) refuseLease(w http.ResponseWriter) {
	w.Header().Set("Retry-After", s.retryAfter(5*time.Second))
	writeError(w, http.StatusServiceUnavailable, "coordinator is draining; not granting leases")
}

// handleHeartbeat is POST /v1/heartbeat. Heartbeats are accepted even
// while draining, so in-flight leases survive the drain window.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Coordinator.Heartbeat(req))
}

// handleComplete is POST /v1/complete: accepted even while draining —
// refusing a completion would turn a graceful drain into a retry storm.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req api.CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Coordinator.Complete(req))
}

// --- per-run event streams -------------------------------------------

// stream is one run's event log and its wakeup fan-out. Subscribers read
// history at their own cursor and park on wake; every publish closes and
// replaces wake, so no subscriber can miss an event or block the
// publisher — a slow or disconnected client costs nothing.
type stream struct {
	history []api.CellEvent
	done    bool
	wake    chan struct{}
}

// openStream registers an event stream for a run.
func (s *Server) openStream(runID string) {
	s.streamMu.Lock()
	s.streams[runID] = &stream{wake: make(chan struct{})}
	s.streamMu.Unlock()
}

// publishEvent appends one event to a run's stream and wakes its
// subscribers. The terminal event (Done=true) also ends the stream and
// drops it from the table — late subscribers replay the finished run's
// record instead.
func (s *Server) publishEvent(runID string, ev api.CellEvent) {
	s.streamMu.Lock()
	st := s.streams[runID]
	if st == nil {
		s.streamMu.Unlock()
		return
	}
	ev.RunID = runID
	ev.Seq = len(st.history)
	st.history = append(st.history, ev)
	if ev.Done {
		st.done = true
		delete(s.streams, runID)
	}
	close(st.wake)
	st.wake = make(chan struct{})
	s.streamMu.Unlock()
}

// dropStream removes a run's stream without a terminal event (the run
// record never reached running — e.g. cancelled while queued). Parked
// subscribers are woken and see done.
func (s *Server) dropStream(runID string) {
	s.streamMu.Lock()
	if st := s.streams[runID]; st != nil {
		st.done = true
		delete(s.streams, runID)
		close(st.wake)
		st.wake = make(chan struct{})
	}
	s.streamMu.Unlock()
}

// snapshotStream returns the events at or past cursor, the wakeup channel
// to park on, and whether the stream has ended.
func (s *Server) snapshotStream(st *stream, cursor int) ([]api.CellEvent, <-chan struct{}, bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	evs := st.history[cursor:]
	return evs, st.wake, st.done
}

// handleRunEvents is GET /v1/runs/{id}/events: a server-sent event
// stream of per-cell results as they land, ending with a terminal "done"
// event. A run that already finished replays its recorded results. A
// client disconnect tears down only the stream — the run itself is owned
// by the submitting request and proceeds to completion.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.streamMu.Lock()
	st := s.streams[id]
	s.streamMu.Unlock()

	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	if st == nil {
		// No live stream: replay the finished run's record, if any.
		snap, found := s.snapshotRun(id)
		if !found {
			writeError(w, http.StatusNotFound, "unknown run ID")
			return
		}
		if snap.Finished == nil {
			// Queued with no stream yet (or a pre-fabric record): nothing
			// to tail; report the gap rather than hanging forever.
			writeError(w, http.StatusConflict, "run has no event stream yet; retry shortly")
			return
		}
		startEventStream(w, fl)
		seq := 0
		for i := range snap.Results {
			cr := snap.Results[i]
			writeEvent(w, fl, api.CellEvent{RunID: id, Seq: seq, Index: i, Cell: &cr})
			seq++
		}
		writeEvent(w, fl, api.CellEvent{RunID: id, Seq: seq, Index: -1, Done: true, Status: snap.Status})
		return
	}

	startEventStream(w, fl)
	cursor := 0
	for {
		evs, wake, done := s.snapshotStream(st, cursor)
		for i := range evs {
			if err := writeEvent(w, fl, evs[i]); err != nil {
				return // client is gone; the run continues without us
			}
		}
		cursor += len(evs)
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return // disconnect tears down the stream, never the run
		case <-wake:
		}
	}
}

// startEventStream commits the SSE response headers. The immediate flush
// matters: subscribers block on the response headers, and the first cell
// of a long run may be minutes away.
func startEventStream(w http.ResponseWriter, fl http.Flusher) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
}

// writeEvent writes one SSE frame and flushes it to the client.
func writeEvent(w io.Writer, fl http.Flusher, ev api.CellEvent) error {
	name := "cell"
	if ev.Done {
		name = "done"
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("service: encoding event: %w", err)
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return fmt.Errorf("service: writing event: %w", err)
	}
	fl.Flush()
	return nil
}

// --- journal hooks ----------------------------------------------------

// journalAppend appends one record, counting (never panicking on)
// failures: a full disk degrades crash recovery, not serving.
func (s *Server) journalAppend(rec fabric.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.journalErrs.Add(1)
	}
}

// journalCache wraps the result cache so every insert is also journaled
// as a RecCache record — the WAL's copy of the result payload. RecCell
// records then only carry the fingerprint, so a result is journaled once
// no matter how many runs repeat the cell.
type journalCache struct {
	inner *resultCache
	s     *Server
}

func (c journalCache) Get(key string) (sim.Result, bool) { return c.inner.Get(key) }

func (c journalCache) Put(key string, res sim.Result) {
	c.inner.Put(key, res)
	r := res
	c.s.journalAppend(fabric.Record{Type: fabric.RecCache, Key: key, Result: &r})
}

// runnerCache returns the cache to hand the grid runner: the raw result
// cache, or its journaling wrapper when a WAL is attached.
func (s *Server) runnerCache() runner.Cache {
	if s.cfg.Journal != nil {
		return journalCache{inner: s.cache, s: s}
	}
	return s.cache
}

// RunJobs executes jobs through the server's standalone grid path —
// shared trace capture, content-addressed cache, batch planner — and
// returns one outcome per job, per-cell errors included. It is the
// worker daemon's executor for leased cells, called with the cells of each
// lease grant that the worker could rebuild: a worker is exactly a
// standalone server whose work arrives by lease instead of by HTTP run
// request.
func (s *Server) RunJobs(ctx context.Context, jobs []runner.Job) []runner.Outcome {
	outs, _ := s.executeGrid(ctx, jobs, "", nil) // errors ride in the outcomes
	return outs
}

// cellProgress builds the per-cell progress hook: each finished cell is
// journaled (crash safety) and published to the run's event stream
// (liveness) the moment it lands, not when the run ends.
func (s *Server) cellProgress(runID string, keys []string) func(runner.Progress) {
	return func(p runner.Progress) {
		cr := CellResult{Bench: p.Bench, Config: p.Config, CacheHit: p.CacheHit}
		if p.Err != nil {
			cr.Error = p.Err.Error()
		} else {
			cr.Result = p.Result
		}
		rec := fabric.Record{
			Type: fabric.RecCell, RunID: runID, Index: p.Index,
			Err: cr.Error, CacheHit: p.CacheHit,
		}
		if p.Index >= 0 && p.Index < len(keys) {
			rec.Key = keys[p.Index]
		}
		s.journalAppend(rec)
		s.publishEvent(runID, api.CellEvent{Index: p.Index, Cell: &cr})
	}
}

// --- journal recovery -------------------------------------------------

// replayInfo captures what boot-time recovery did, for /metrics.
type replayInfo struct {
	stats   fabric.ReplayStats
	seconds float64
	runs    int // journaled runs recovered (finished or resumed)
	resumed int // unfinished runs re-executed
}

// RecoverJournal replays a WAL image into the server: cache records
// refill the content-addressed result cache, finished runs are restored
// as queryable records, and unfinished runs are re-executed — their
// journaled cells now cache hits, so a restart resumes from the last
// completed cell instead of re-simulating, with bit-identical output.
// Call once at boot, before serving traffic.
func (s *Server) RecoverJournal(ctx context.Context, recs []fabric.Record, stats fabric.ReplayStats) (resumed int, err error) {
	start := now()
	type runState struct {
		rec    fabric.Record
		cells  map[int]fabric.Record
		finish *fabric.Record
	}
	var order []string
	states := make(map[string]*runState)
	for i := range recs {
		rec := recs[i]
		switch rec.Type {
		case fabric.RecCache:
			if rec.Key != "" && rec.Result != nil {
				s.cache.Put(rec.Key, *rec.Result)
			}
		case fabric.RecRun:
			if rec.RunID == "" || rec.Req == nil {
				continue
			}
			if states[rec.RunID] == nil {
				order = append(order, rec.RunID)
			}
			states[rec.RunID] = &runState{rec: rec, cells: make(map[int]fabric.Record)}
		case fabric.RecCell:
			if st := states[rec.RunID]; st != nil {
				st.cells[rec.Index] = rec
			}
		case fabric.RecFinish:
			if st := states[rec.RunID]; st != nil {
				st.finish = &recs[i]
			}
		}
	}

	var firstErr error
	for _, id := range order {
		st := states[id]
		s.restoreRun(id, st.rec)
		jobs, buildErr := s.buildJobs(st.rec.Req)
		if buildErr != nil {
			// The journaled request no longer builds (e.g. a renamed
			// config across versions): fail the record, keep serving.
			s.finishRun(id, StatusFailed, nil, 0, "journal replay: "+buildErr.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("service: replaying run %s: %w", id, buildErr)
			}
			continue
		}
		if st.finish != nil {
			results, hits := s.recoveredResults(jobs, st.cells)
			if st.finish.Status != StatusDone {
				results = nil // partial grids are not reconstructed
			}
			s.finishRun(id, st.finish.Status, results, hits, st.finish.Err)
			continue
		}
		// Unfinished run: re-execute. Completed cells were journaled into
		// the cache above, so they replay as hits; only the missing tail
		// simulates.
		s.openStream(id)
		s.performRun(ctx, id, jobs)
		resumed++
	}
	info := &replayInfo{stats: stats, seconds: now().Sub(start).Seconds(),
		runs: len(order), resumed: resumed}
	s.replay.Store(info)
	return resumed, firstErr
}

// recoveredResults rebuilds a finished run's per-cell results from its
// journaled cell records plus the replayed cache.
func (s *Server) recoveredResults(jobs []runner.Job, cells map[int]fabric.Record) ([]CellResult, int) {
	results := make([]CellResult, len(jobs))
	hits := 0
	for i := range jobs {
		cr := CellResult{Bench: jobs[i].Profile.Name, Config: jobs[i].Name}
		rec, ok := cells[i]
		switch {
		case !ok:
			cr.Error = "cell outcome not recovered from journal"
		case rec.Err != "":
			cr.Error = rec.Err
		default:
			cr.CacheHit = rec.CacheHit
			if res, found := s.cache.Get(rec.Key); found {
				r := res
				r.Config = jobs[i].Name
				cr.Result = &r
				hits++
			} else {
				cr.Error = "cell result evicted before recovery"
			}
		}
		results[i] = cr
	}
	return results, hits
}

// restoreRun recreates a journaled run record under its original ID and
// advances the ID sequence past it, so new runs never collide.
func (s *Server) restoreRun(id string, rec fabric.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	if _, err := fmt.Sscanf(id, "run-%d", &seq); err == nil && seq > s.nextID {
		s.nextID = seq
	}
	if s.runs[id] == nil {
		s.order = append(s.order, id)
	}
	s.runs[id] = &Run{ID: id, Status: StatusQueued, Created: rec.Created, Cells: rec.Cells}
	s.evictRunsLocked()
}

// --- fabric metrics ---------------------------------------------------

// renderFabricMetrics appends the coordinator's counters to /metrics.
func renderFabricMetrics(w io.Writer, m fabric.Metrics) {
	fmt.Fprintln(w, "# HELP simserved_fabric_workers Fabric workers by liveness.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_workers gauge")
	fmt.Fprintf(w, "simserved_fabric_workers{state=\"live\"} %d\n", m.WorkersLive)
	fmt.Fprintf(w, "simserved_fabric_workers{state=\"dead\"} %d\n", m.WorkersDead)

	fmt.Fprintln(w, "# HELP simserved_fabric_cells_pending Cells queued for lease.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_cells_pending gauge")
	fmt.Fprintf(w, "simserved_fabric_cells_pending %d\n", m.CellsPending)

	fmt.Fprintln(w, "# HELP simserved_fabric_leases_active Cells currently held by workers.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_leases_active gauge")
	fmt.Fprintf(w, "simserved_fabric_leases_active %d\n", m.LeasesActive)

	fmt.Fprintln(w, "# HELP simserved_fabric_lease_expiries_total Leased cells lost: the holding worker missed its heartbeats or asked for a new grant.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_lease_expiries_total counter")
	fmt.Fprintf(w, "simserved_fabric_lease_expiries_total %d\n", m.LeaseExpiries)

	fmt.Fprintln(w, "# HELP simserved_fabric_cells_retried_total Cells re-queued after a lost lease.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_cells_retried_total counter")
	fmt.Fprintf(w, "simserved_fabric_cells_retried_total %d\n", m.CellsRetried)

	fmt.Fprintln(w, "# HELP simserved_fabric_cells_total Cells settled, by execution source.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_cells_total counter")
	fmt.Fprintf(w, "simserved_fabric_cells_total{source=\"worker\"} %d\n", m.CellsCompleted)
	fmt.Fprintf(w, "simserved_fabric_cells_total{source=\"local\"} %d\n", m.CellsLocal)

	fmt.Fprintln(w, "# HELP simserved_fabric_dead_workers_total Workers declared dead after missed heartbeats.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_dead_workers_total counter")
	fmt.Fprintf(w, "simserved_fabric_dead_workers_total %d\n", m.DeadWorkers)

	fmt.Fprintln(w, "# HELP simserved_fabric_duplicate_completions_total Late completions for already-settled cells (deduplicated).")
	fmt.Fprintln(w, "# TYPE simserved_fabric_duplicate_completions_total counter")
	fmt.Fprintf(w, "simserved_fabric_duplicate_completions_total %d\n", m.DuplicateCompletions)

	fmt.Fprintln(w, "# HELP simserved_fabric_retry_mismatches_total Retried cells whose result was not bit-identical to the first try.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_retry_mismatches_total counter")
	fmt.Fprintf(w, "simserved_fabric_retry_mismatches_total %d\n", m.RetryMismatches)
}

// renderWorkerMetrics appends a fabric worker's lease grant counters to
// /metrics; their ratio is the cells each grant carried.
func renderWorkerMetrics(w io.Writer, grants, cells uint64) {
	fmt.Fprintln(w, "# HELP simserved_fabric_lease_grants_total Non-empty lease replies this worker received.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_lease_grants_total counter")
	fmt.Fprintf(w, "simserved_fabric_lease_grants_total %d\n", grants)
	fmt.Fprintln(w, "# HELP simserved_fabric_leased_cells_total Cells carried by the lease grants this worker received.")
	fmt.Fprintln(w, "# TYPE simserved_fabric_leased_cells_total counter")
	fmt.Fprintf(w, "simserved_fabric_leased_cells_total %d\n", cells)
}

// renderJournalMetrics appends the WAL recovery gauges to /metrics.
func renderJournalMetrics(w io.Writer, info *replayInfo, appendErrs uint64) {
	fmt.Fprintln(w, "# HELP simserved_journal_append_errors_total Journal appends that failed.")
	fmt.Fprintln(w, "# TYPE simserved_journal_append_errors_total counter")
	fmt.Fprintf(w, "simserved_journal_append_errors_total %d\n", appendErrs)
	if info == nil {
		return
	}
	fmt.Fprintln(w, "# HELP simserved_journal_replay_seconds Wall-clock time of boot journal replay.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_seconds gauge")
	fmt.Fprintf(w, "simserved_journal_replay_seconds %g\n", info.seconds)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_records Journal records replayed at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_records gauge")
	fmt.Fprintf(w, "simserved_journal_replay_records %d\n", info.stats.Records)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_truncated_bytes Torn-tail bytes discarded at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_truncated_bytes gauge")
	fmt.Fprintf(w, "simserved_journal_replay_truncated_bytes %d\n", info.stats.TruncatedBytes)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_runs Journaled runs recovered at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_runs gauge")
	fmt.Fprintf(w, "simserved_journal_replay_runs %d\n", info.runs)
	fmt.Fprintln(w, "# HELP simserved_journal_resumed_runs Unfinished runs re-executed at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_resumed_runs gauge")
	fmt.Fprintf(w, "simserved_journal_resumed_runs %d\n", info.resumed)
}
