// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks every simulated result,
// and prints the metrics named in BENCHMARK.json: the end-to-end metrics
// with -trace 0, the per-layer metrics of a separate traced run with
// -trace 1. The last line of standard output is a single JSON object:
//
//	{"correct": true, "attempted": 672, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload headline --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metric definitions and
// the sensitivity check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one invocation's configuration.
type env struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	outDir    string // scratch space for journals, spans and profiles
	simserved string // path of the simserved binary (serve workload)
	workers   int    // runner parallelism and speed-probe goroutines: nproc
	probe     *speedProbe
}

// speedProbe returns the process's memory-speed probe, building it on
// first use.
func (e *env) speedProbe() (*speedProbe, error) {
	if e.probe == nil {
		p, err := newSpeedProbe()
		if err != nil {
			return nil, err
		}
		e.probe = p
	}
	return e.probe, nil
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string           // first few failure descriptions
	metrics           map[string]float64 // end-to-end or per-layer, by name
	report            []reportLine       // human-readable extras printed before the JSON line
	digest            string             // digest of every simulated result of the run
}

// reportLine is one named value printed for people, before the result line.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// fail records one failed output check without stopping the run.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workloadFunc runs one workload.
type workloadFunc func(e *env) (*outcome, error)

// workloads is filled by each workload file's init.
var workloads = map[string]workloadFunc{}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program checks its output against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: perturbs program generation, fault-injector seeds and the serve request mix")
	seconds := fs.Int("seconds", 0, "measurement budget in seconds (default: run_seconds from the spec)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric names and units")
	outDir := fs.String("out", ".bench_build/perfbench", "scratch directory for journals, spans and profiles")
	simserved := fs.String("simserved", ".bench_build/bin/simserved", "simserved binary used by the serve workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: no measurement budget (-seconds or run_seconds)")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		workload:  *name,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		outDir:    *outDir,
		simserved: *simserved,
		workers:   runtime.GOMAXPROCS(0),
	}
	out, err := wf(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := sp.EndToEnd
	if e.trace {
		want = sp.PerLayer
	}
	line, err := resultLine(out, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%v attempted=%d failed=%d\n",
		*name, *seed, e.trace, out.attempted, out.failed)
	if out.digest != "" {
		fmt.Fprintf(stdout, "perfbench: digest %s\n", out.digest)
	}
	for _, r := range out.report {
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-8s %s\n", r.name, r.value, r.unit, r.note)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON object, holding exactly the metrics
// the spec lists for this kind of run.
func resultLine(out *outcome, want []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var bad []string
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		switch {
		case !ok:
			bad = append(bad, "missing "+m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, fmt.Sprintf("%s is %v", m.Name, v))
		default:
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
	}
	for name := range out.metrics {
		if !declared[name] {
			bad = append(bad, "undeclared "+name)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return "", fmt.Errorf("metrics out of step with the spec: %s", strings.Join(bad, ", "))
	}
	if out.attempted < 1 {
		return "", errors.New("nothing attempted")
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// selfPeakRSSMB is this process's peak resident set size in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
