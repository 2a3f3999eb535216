package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/workload"
)

// Fingerprinter is implemented by run add-ons — today fault injectors —
// whose effect on a simulation is fully determined by a serializable spec.
// Two freshly-constructed values with equal fingerprints must steer
// identical runs identically; a job carrying an add-on that cannot promise
// this is uncacheable. The string should name its type to keep specs of
// different kinds from colliding.
type Fingerprinter interface {
	Fingerprint() string
}

// ErrUncacheable reports that a job's result cannot be keyed: some input
// (an injector without a Fingerprint, typically) is not reducible to a
// canonical spec. Uncacheable jobs still run; they just never hit or fill
// Options.Cache.
var ErrUncacheable = errors.New("runner: job is not cacheable")

// optsKey is the canonical projection of sim.Options into the
// fingerprint. It is a package-level type so the completeness test can
// hold it against sim.Options by reflection: every exported Options
// field must appear here by name or in that test's documented exclusion
// set, which is how a future Options field fails the test instead of
// silently aliasing distinct results in the cache.
type optsKey struct {
	Insns       uint64
	Verify      bool
	FastForward uint64
	Seed        uint64
	Injector    string `json:",omitempty"`
	Program     string `json:",omitempty"`
}

// Fingerprint returns a stable content hash identifying everything that
// determines the job's simulation outcome: the machine configuration, the
// workload profile, the run options, the exact program when one is
// pinned, and the fault campaign spec when an injector is attached.
// Simulation is deterministic in these inputs, so equal fingerprints mean
// bit-identical results — the property the serving layer's result cache is
// built on, the way the IRB's PC+operand key means a reusable result.
//
// Deliberately excluded: Job.Name (a display label, rewritten on cache
// hits), Options.Trace (replay is bit-identical to interpretation by
// construction), and anything observational (progress callbacks).
func (j Job) Fingerprint() (string, error) {
	ok := optsKey{
		Insns:       j.Opts.Insns,
		Verify:      j.Opts.Verify,
		FastForward: j.Opts.FastForward,
		Seed:        j.Opts.Seed,
	}
	if j.Opts.Injector != nil {
		fp, is := j.Opts.Injector.(Fingerprinter)
		if !is {
			return "", fmt.Errorf("%w: injector %T has no Fingerprint", ErrUncacheable, j.Opts.Injector)
		}
		ok.Injector = fp.Fingerprint()
	}
	if j.Opts.Program != nil {
		ok.Program = programDigest(j.Opts.Program)
	}
	payload := struct {
		Config  core.Config
		Profile workload.Profile
		Opts    optsKey
	}{j.Config, j.Profile, ok}
	// JSON with sorted struct fields and map keys is canonical enough:
	// every keyed type here is plain exported data.
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("runner: fingerprinting job: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// programDigest hashes a pinned program's full content: name, entry, code
// image and initial data segment (in address order).
func programDigest(p *program.Program) string {
	h := sha256.New()
	h.Write([]byte(p.Name))
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], p.Entry)
	h.Write(w[:])
	for _, word := range p.Image() {
		binary.LittleEndian.PutUint64(w[:], word)
		h.Write(w[:])
	}
	for i, v := range p.Data {
		binary.LittleEndian.PutUint64(w[:], p.DataBase+8*uint64(i))
		h.Write(w[:])
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
