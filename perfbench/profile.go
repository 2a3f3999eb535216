//go:build !perfbench_legacy

package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
)

// The CPU profile is decoded here rather than with a pprof library: the
// benchmark uses the standard library only, and it needs just the sample
// stacks and their CPU time.

// sample is one profile sample: its stack, leaf first, with inlined
// frames expanded, and its CPU time in nanoseconds.
type sample struct {
	stack []string
	cpuNs int64
}

// protoField is one decoded protobuf field.
type protoField struct {
	num   int
	wire  int
	value uint64 // varint and fixed-width values
	bytes []byte // length-delimited values
}

// protoFields splits a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unknown wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func varints(f protoField) []uint64 {
	if f.wire == 0 {
		return []uint64{f.value}
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample [][]byte
	)
	for _, f := range top {
		switch f.num {
		case 2:
			rawSample = append(rawSample, f.bytes)
		case 4: // Location
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // Line
					lfs, err := protoFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							fns = append(fns, x.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = x.value
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(rawSample))
	for _, rs := range rawSample {
		fs, err := protoFields(rs)
		if err != nil {
			return nil, err
		}
		var s sample
		var values []uint64
		for _, f := range fs {
			switch f.num {
			case 1:
				for _, loc := range varints(f) {
					for _, fn := range locFuncs[loc] {
						s.stack = append(s.stack, str(funcName[fn]))
					}
				}
			case 2:
				values = append(values, varints(f)...)
			}
		}
		// CPU profiles carry [samples, cpu nanoseconds].
		if len(values) > 0 {
			s.cpuNs = int64(values[len(values)-1])
		}
		out = append(out, s)
	}
	return out, nil
}

// stageMap assigns each function to a pipeline stage or layer. The
// checked-in table (stagemap.txt) is the benchmark's definition of the
// *_share metrics; "^" marks a helper whose time belongs to its caller.
//
//go:embed stagemap.txt
var stageMapText string

// inherit is the stage of a helper charged to its caller.
const inherit = "^"

// excluded marks the benchmark's own measuring code: its samples are
// dropped, not charged to any stage.
const excluded = "-"

// stageOther collects samples no stage claims.
const stageOther = "other_share"

// checkedPackages must have every sampled function mapped explicitly,
// so a rename cannot silently move time between stages.
var checkedPackages = []string{
	"repro/internal/core.", "repro/internal/irb.", "repro/internal/trb.",
	"repro/internal/fsim.", "repro/internal/sim.",
}

type stageMap struct {
	exact    map[string]string
	prefixes []struct{ prefix, stage string } // "pkg.*" entries, longest first
}

func loadStageMap(text string) (*stageMap, error) {
	m := &stageMap{exact: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		t := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(t, '#'); i >= 0 {
			t = strings.TrimSpace(t[:i])
		}
		if t == "" {
			continue
		}
		f := strings.Fields(t)
		if len(f) != 2 {
			return nil, fmt.Errorf("stagemap.txt:%d: want <function> <stage>", line)
		}
		if p, ok := strings.CutSuffix(f[0], "*"); ok {
			for _, c := range checkedPackages {
				if strings.HasPrefix(p, c) || strings.HasPrefix(c, p) {
					return nil, fmt.Errorf("stagemap.txt:%d: %s functions must be mapped one by one", line, c)
				}
			}
			m.prefixes = append(m.prefixes, struct{ prefix, stage string }{p, f[1]})
			continue
		}
		if _, dup := m.exact[f[0]]; dup {
			return nil, fmt.Errorf("stagemap.txt:%d: %s mapped twice", line, f[0])
		}
		m.exact[f[0]] = f[1]
	}
	sort.Slice(m.prefixes, func(i, j int) bool { return len(m.prefixes[i].prefix) > len(m.prefixes[j].prefix) })
	return m, sc.Err()
}

// closureSuffix matches the compiler's names for closures, go statement
// wrappers, method values and generic instantiations.
var closureSuffix = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|-fm|\[\.\.\.\]|\.\d+)+$`)

// canonical strips closure and instantiation suffixes: a closure's time
// belongs to the function that declares it.
func canonical(fn string) string {
	for {
		s := closureSuffix.ReplaceAllString(fn, "")
		if s == fn {
			return s
		}
		fn = s
	}
}

// lookup returns the stage of fn, "" when unmapped. A closure created
// by an inlined call carries both names ("pkg.F.g"); it falls back to the
// enclosing function F.
func (m *stageMap) lookup(fn string) string {
	fn = canonical(fn)
	pkgEnd := strings.LastIndexByte(fn, '/') + 1
	for {
		if s, ok := m.exact[fn]; ok {
			return s
		}
		i := strings.LastIndexByte(fn, '.')
		if i <= strings.IndexByte(fn[pkgEnd:], '.')+pkgEnd {
			break
		}
		fn = fn[:i]
	}
	for _, p := range m.prefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.stage
		}
	}
	return ""
}

// isChecked reports whether fn belongs to a package that must be mapped
// function by function.
func isChecked(fn string) bool {
	for _, c := range checkedPackages {
		if strings.HasPrefix(fn, c) {
			return true
		}
	}
	return false
}

// stageShares attributes each sample to the stage of its leaf-most
// mapped frame (helpers marked "^" pass it to their caller) and returns
// each stage's share of all sampled CPU time. It fails when a sampled
// function of a checked package is not in the map.
func (m *stageMap) stageShares(samples []sample) (map[string]float64, error) {
	byStage := map[string]int64{}
	var total int64
	unmapped := map[string]bool{}
	for _, s := range samples {
		stage := ""
		for _, fn := range s.stack {
			st := m.lookup(fn)
			if st == "" && isChecked(fn) {
				unmapped[canonical(fn)] = true
			}
			if st != "" && st != inherit && stage == "" {
				stage = st
			}
		}
		switch stage {
		case excluded:
			continue
		case "":
			stage = stageOther
		}
		byStage[stage] += s.cpuNs
		total += s.cpuNs
	}
	if len(unmapped) > 0 {
		names := make([]string, 0, len(unmapped))
		for n := range unmapped {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("stagemap.txt does not map sampled functions:\n  %s", strings.Join(names, "\n  "))
	}
	shares := map[string]float64{}
	for st, ns := range byStage {
		shares[st] = ratio(float64(ns), float64(total))
	}
	return shares, nil
}
