// Package api is the wire contract of the simulation daemon: every JSON
// payload POST /v1/runs accepts and the /v1 endpoints return, as plain
// structs with explicit field tags. Clients (the sweep CLI, dashboards,
// tests) unmarshal into these types instead of re-declaring the shapes;
// the golden-payload test in this package pins the serialized form, so a
// field rename or tag change that would break deployed clients fails the
// build rather than an integration.
package api

import (
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunRequest is the body of POST /v1/runs: a (configs × benchmarks) grid
// of simulation cells sharing one set of run options.
type RunRequest struct {
	// Configs names the machine configurations to run; see ConfigNames
	// (GET /v1/configs) for the accepted values.
	Configs []string `json:"configs,omitempty"`
	// Modes names redundancy modes to run at the paper-baseline machine,
	// resolved through the core mode registry; see GET /v1/modes for the
	// accepted values. Modes append columns after Configs, so a request
	// may mix both (at least one of the two must be non-empty).
	Modes []string `json:"modes,omitempty"`
	// Benchmarks restricts the workload set (empty = all 12 SPEC2000
	// profiles).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Insns is the per-cell architected instruction budget (0 = the
	// server's default).
	Insns uint64 `json:"insns,omitempty"`
	// FastForward skips this many instructions before measurement.
	FastForward uint64 `json:"fast_forward,omitempty"`
	// Seed perturbs the workload generators (see sim.Options.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Verify cross-checks every committed instruction against the
	// functional oracle.
	Verify bool `json:"verify,omitempty"`
	// Fault attaches a fault-injection campaign to every cell.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// FaultSpec is the serializable fault campaign of a run request: the
// fault.Config each cell builds its own fresh injector from.
type FaultSpec = fault.Config

// CellResult is one grid cell's outcome in a run response.
type CellResult struct {
	Bench    string      `json:"bench"`
	Config   string      `json:"config"`
	CacheHit bool        `json:"cache_hit"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Run is the resource returned by POST /v1/runs and GET /v1/runs/{id}.
type Run struct {
	ID        string       `json:"id"`
	Status    string       `json:"status"` // queued, running, done, failed, cancelled
	Created   time.Time    `json:"created"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Cells     int          `json:"cells"`
	CacheHits int          `json:"cache_hits"`
	Error     string       `json:"error,omitempty"`
	Results   []CellResult `json:"results,omitempty"`
}

// Run statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Mode is one entry of GET /v1/modes: a registered redundancy mode's
// identity, capability summary, and tunable knobs.
type Mode struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Streams is the execution copies dispatched per architected
	// instruction (the default; a knob may widen it).
	Streams int `json:"streams"`
	// Compare is where redundant work is checked: none, pair, vote or
	// epoch.
	Compare string `json:"compare"`
	// Detects: the mode detects datapath faults.
	Detects bool `json:"detects"`
	// Corrects: the mode repairs detected faults without a rewind.
	Corrects bool `json:"corrects"`
	// Knobs are the mode-specific tuning parameters.
	Knobs []Knob `json:"knobs,omitempty"`
}

// Knob is one mode-specific tuning parameter.
type Knob struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ModesResponse is the body of GET /v1/modes.
type ModesResponse struct {
	Modes []Mode `json:"modes"`
}

// Error is the body of every non-2xx /v1 response. ValidModes is set
// when the request named an unknown redundancy mode, so a client can
// self-correct without a second round trip.
type Error struct {
	Error      string   `json:"error"`
	ValidModes []string `json:"valid_modes,omitempty"`
}

// --- fabric wire types ------------------------------------------------
//
// The coordinator/worker tier speaks these shapes on POST /v1/lease,
// POST /v1/heartbeat and POST /v1/complete. A Cell carries everything a
// worker needs to rebuild the runner.Job locally — simulation is
// deterministic in these fields (they are exactly what Job.Fingerprint
// hashes), so a cell executed on any worker, or re-executed after a lost
// lease, produces a bit-identical result.

// Cell is one grid cell shipped from the coordinator to a worker.
type Cell struct {
	// ID is the coordinator-assigned cell identity, echoed back in the
	// completion so late results (after a lost lease) still find their
	// cell.
	ID uint64 `json:"id"`
	// Name is the configuration display name (runner.Job.Name).
	Name string `json:"name"`
	// Config is the full machine configuration.
	Config core.Config `json:"config"`
	// Profile is the workload profile.
	Profile workload.Profile `json:"profile"`
	// Run options (the sim.Options subset that crosses the wire; programs
	// and traces never do — workers capture their own traces).
	Insns       uint64     `json:"insns,omitempty"`
	FastForward uint64     `json:"fast_forward,omitempty"`
	Seed        uint64     `json:"seed,omitempty"`
	Verify      bool       `json:"verify,omitempty"`
	Fault       *FaultSpec `json:"fault,omitempty"`
}

// LeaseRequest is the body of POST /v1/lease: a worker asking the
// coordinator for a batch of cells.
type LeaseRequest struct {
	// Worker is the caller's stable identity.
	Worker string `json:"worker"`
	// Max caps the cells returned (0 = the coordinator's default batch).
	Max int `json:"max,omitempty"`
}

// Lease is one granted cell lease.
type Lease struct {
	ID   string `json:"id"`
	Cell Cell   `json:"cell"`
}

// LeaseResponse is the body of a successful POST /v1/lease. An empty
// reply was held at the coordinator until its hold elapsed: ask again
// now.
type LeaseResponse struct {
	Leases []Lease `json:"leases"`
	// HeartbeatMillis is the heartbeat cadence the worker must hold
	// while it runs the grant.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest is the body of POST /v1/heartbeat: it refreshes the
// worker's liveness, which keeps the cells it holds.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse reports whether the coordinator still knows the
// worker. Known=false after a coordinator restart or a dead-worker
// sweep: the worker's cells are gone and any in-flight work will be
// deduplicated on completion.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// CellCompletion is one finished cell in a POST /v1/complete body.
type CellCompletion struct {
	LeaseID string `json:"lease_id"`
	// CellID identifies the cell independently of the lease, so a
	// completion arriving after its lease was lost is still matched and
	// deduplicated instead of lost.
	CellID uint64      `json:"cell_id"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
	// CacheHit reports the worker served the cell from its local
	// content-addressed cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// CompleteRequest is the body of POST /v1/complete.
type CompleteRequest struct {
	Worker string           `json:"worker"`
	Cells  []CellCompletion `json:"cells"`
}

// CompleteResponse acknowledges a completion batch.
type CompleteResponse struct {
	// Accepted counts completions that settled a live cell.
	Accepted int `json:"accepted"`
	// Duplicates counts completions for cells that had already been
	// settled by a retry elsewhere (verified bit-identical, then
	// discarded).
	Duplicates int `json:"duplicates"`
}

// CellEvent is one server-sent event on GET /v1/runs/{id}/events: a cell
// result as it lands, or the terminal run summary.
type CellEvent struct {
	RunID string `json:"run_id"`
	// Seq orders events within the run, starting at 0.
	Seq int `json:"seq"`
	// Index is the cell's position in the run's result grid (-1 on the
	// terminal event).
	Index int `json:"index"`
	// Cell is the completed cell (nil on the terminal event).
	Cell *CellResult `json:"cell,omitempty"`
	// Done marks the terminal event; Status carries the run's terminal
	// status with it.
	Done   bool   `json:"done,omitempty"`
	Status string `json:"status,omitempty"`
}
