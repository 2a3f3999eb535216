package service

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The wire types live in internal/service/api — the serialization
// contract clients program against, pinned there by a golden-payload
// test. The daemon uses them under their traditional names.
type (
	RunRequest = api.RunRequest
	CellResult = api.CellResult
	Run        = api.Run
)

// Run statuses.
const (
	StatusQueued    = api.StatusQueued
	StatusRunning   = api.StatusRunning
	StatusDone      = api.StatusDone
	StatusFailed    = api.StatusFailed
	StatusCancelled = api.StatusCancelled
)

// unknownModeError carries the registry listing to the HTTP layer, which
// renders it as a structured 400 with valid_modes, so clients can
// self-correct without another round trip.
type unknownModeError struct {
	name  string
	valid []string
}

func (e *unknownModeError) Error() string {
	return fmt.Sprintf("unknown mode %q (see GET /v1/modes)", e.name)
}

// ErrNoConfigs rejects a run request naming neither configurations nor
// modes; the HTTP layer renders it as a 400.
var ErrNoConfigs = errors.New("configs: at least one configuration or mode name required (see GET /v1/configs, GET /v1/modes)")

// errOverBudget rejects a request over maxTraceRecords; the HTTP layer
// renders it as a 413, like a request over Config.MaxCells.
var errOverBudget = errors.New("request exceeds the instruction budget")

// maxTraceRecords bounds profiles × (insns + fast_forward) per request.
// The runner may hold one 72-byte trace record (fsim.Retired) per
// instruction of each profile before a cell runs; 1<<24 records (~1.1 GiB)
// admit the default of 12 profiles at sim.DefaultInsns (3.6M records)
// four times over.
const maxTraceRecords = 1 << 24

// checkTraceBudget enforces maxTraceRecords without overflowing uint64:
// each term is bounded before it is added or multiplied.
func checkTraceBudget(profiles int, insns, fastForward uint64) error {
	if insns > maxTraceRecords || fastForward > maxTraceRecords-insns ||
		(profiles > 0 && insns+fastForward > maxTraceRecords/uint64(profiles)) {
		return fmt.Errorf("%w: %d profiles × (%d insns + %d fast_forward), limit %d records",
			errOverBudget, profiles, insns, fastForward, maxTraceRecords)
	}
	return nil
}

// unknownConfigError mirrors unknownModeError for the named-configuration
// column source, keeping the rejection selectable with errors.As instead
// of message matching.
type unknownConfigError struct {
	name string
}

func (e *unknownConfigError) Error() string {
	return fmt.Sprintf("unknown config %q (see GET /v1/configs)", e.name)
}

// DescribeModes renders the core mode registry as the GET /v1/modes
// payload.
func DescribeModes() []api.Mode {
	var out []api.Mode
	for _, mi := range core.Modes() {
		m := api.Mode{
			Name:        string(mi.Mode),
			Description: mi.Description,
			Streams:     mi.Caps.Streams,
			Compare:     string(mi.Caps.Compare),
			Detects:     mi.Caps.Detects,
			Corrects:    mi.Caps.Corrects,
		}
		for _, k := range mi.Knobs {
			m.Knobs = append(m.Knobs, api.Knob{Name: k.Name, Doc: k.Doc})
		}
		out = append(out, m)
	}
	return out
}

// configRegistry maps every named configuration the simulation layer
// defines — the experiment families of internal/sim — to its core.Config,
// so requests name machines the same way the paper's tables do.
func configRegistry() map[string]core.Config {
	m := make(map[string]core.Config)
	add := func(ncs []sim.NamedConfig) {
		for _, nc := range ncs {
			m[nc.Name] = nc.Cfg
		}
	}
	add(sim.FrontierConfigs())
	add(sim.Fig2Configs())
	add(sim.HeadlineConfigs())
	add(sim.IRBSizeConfigs([]int{128, 256, 512, 1024, 2048, 4096}))
	add(sim.ConflictConfigs())
	add(sim.PortConfigs([]int{1, 2, 4, 8}))
	add(sim.SchedulerConfigs())
	add(sim.ClusterConfigs())
	add(sim.ReuseSourceConfigs())
	return m
}

// ConfigNames returns the accepted configuration names, sorted.
func ConfigNames() []string {
	reg := configRegistry()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ConfigByName resolves a named machine configuration.
func ConfigByName(name string) (core.Config, bool) {
	cfg, ok := configRegistry()[name]
	return cfg, ok
}

// buildJobs validates a request and expands it into the runner job grid,
// applying the server's defaults. Each cell with a fault spec gets its own
// freshly built injector, keeping cells independent (and cacheable — the
// injector's fingerprint is its spec, which is only valid for fresh
// injectors).
func (s *Server) buildJobs(req *RunRequest) ([]runner.Job, error) {
	if len(req.Configs) == 0 && len(req.Modes) == 0 {
		return nil, ErrNoConfigs
	}
	// Resolve the request's columns up front: named configurations first,
	// then registry modes at the paper-baseline machine. Mode names are
	// validated against the registry before any simulation time is spent.
	var cols []sim.NamedConfig
	for _, name := range req.Configs {
		cfg, ok := ConfigByName(name)
		if !ok {
			return nil, &unknownConfigError{name: name}
		}
		cols = append(cols, sim.NamedConfig{Name: name, Cfg: cfg})
	}
	for _, name := range req.Modes {
		mi, ok := core.ModeByName(name)
		if !ok {
			return nil, &unknownModeError{name: name, valid: core.ModeNames()}
		}
		cols = append(cols, sim.NamedConfig{Name: string(mi.Mode), Cfg: mi.Base()})
	}
	if req.Fault != nil {
		if err := req.Fault.Validate(); err != nil {
			return nil, err
		}
	}
	profiles, err := workload.ByNames(req.Benchmarks)
	if err != nil {
		return nil, err
	}
	insns := req.Insns
	if insns == 0 {
		insns = s.cfg.DefaultInsns
	}
	if err := checkTraceBudget(len(profiles), insns, req.FastForward); err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, p := range profiles {
		for _, col := range cols {
			opts := sim.Options{
				Insns:       insns,
				Verify:      req.Verify || s.cfg.Verify,
				FastForward: req.FastForward,
				Seed:        req.Seed,
			}
			if req.Fault != nil {
				inj, ferr := fault.New(*req.Fault)
				if ferr != nil {
					return nil, ferr
				}
				opts.Injector = inj
			}
			jobs = append(jobs, runner.Job{Name: col.Name, Config: col.Cfg, Profile: p, Opts: opts})
		}
	}
	return jobs, nil
}
