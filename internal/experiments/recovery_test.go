package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// faultQuickOpts trims the campaign grid enough that the determinism
// matrix (parallelism × replay) stays fast.
func faultQuickOpts() Options {
	return Options{
		Insns:      30_000,
		Benchmarks: []string{"bzip2", "mesa"},
	}
}

// TestFaultsDeterministic: the campaign table is a pure function of its
// inputs — the worker count must not change a single counter. This is
// the property that makes fault campaigns reviewable artifacts rather
// than one-off observations.
func TestFaultsDeterministic(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"serial", func() Options { o := faultQuickOpts(); o.Parallelism = 1; return o }()},
		{"parallel-8", func() Options { o := faultQuickOpts(); o.Parallelism = 8; return o }()},
	}
	var ref []FaultRow
	for _, v := range variants {
		rows, _, err := Faults(v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if ref == nil {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Errorf("%s: fault table differs from the serial reference\n got %+v\nwant %+v",
				v.name, rows, ref)
		}
	}
}

// TestRecoveryShape: the recovery-overhead sweep produces one row per
// campaign×rate with sane accounting — fault-free baselines present,
// detections at the sustained rate, repair windows behind every MTTR, and
// zero silent corruptions anywhere (every run is oracle-verified).
func TestRecoveryShape(t *testing.T) {
	opts := faultQuickOpts()
	rows, tbl, err := Recovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18 (6 campaigns x 3 rates)", len(rows))
	}
	if tbl == nil {
		t.Fatal("no table rendered")
	}
	for _, r := range rows {
		label := string(r.Mode) + "/" + string(r.Site)
		if r.BaseIPC <= 0 {
			t.Errorf("%s @ %g: BaseIPC %.3f, want > 0", label, r.Rate, r.BaseIPC)
		}
		if r.IPC <= 0 {
			t.Errorf("%s @ %g: IPC %.3f, want > 0", label, r.Rate, r.IPC)
		}
		if r.Silent != 0 {
			t.Errorf("%s @ %g: %d silent corruptions under the oracle", label, r.Rate, r.Silent)
		}
		if r.Repairs > r.Recoveries {
			t.Errorf("%s @ %g: repairs %d exceed recoveries %d", label, r.Rate, r.Repairs, r.Recoveries)
		}
		if r.Repairs > 0 && r.MTTR() < 1 {
			t.Errorf("%s @ %g: MTTR %.2f with %d repairs", label, r.Rate, r.MTTR(), r.Repairs)
		}
		// At the sustained-assault rate the directly-struck compute sites
		// must actually exercise recovery.
		if r.Rate == 1e-3 && (r.Site == fault.FU || r.Site == fault.Forward) {
			if r.Detected == 0 || r.Recoveries == 0 {
				t.Errorf("%s @ %g: detected %d, recovered %d — campaign never exercised recovery",
					label, r.Rate, r.Detected, r.Recoveries)
			}
		}
	}
}

// TestCampaignRowOrder pins the row order of the campaign tables, which
// derive their matrices from the mode registry: modes in registry order,
// each mode's sites as fu, forward, then the IRB's result array and
// operand fields, and Recovery's rates inside each campaign.
func TestCampaignRowOrder(t *testing.T) {
	opts := Options{Insns: 2000, Benchmarks: []string{"gzip"}}
	label := func(r FaultRow) string { return string(r.Mode) + "/" + string(r.Site) }
	check := func(exp string, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows %v, want %v", exp, got, want)
		}
	}
	six := []string{"DIE/fu", "DIE/forward", "DIE-IRB/fu", "DIE-IRB/forward",
		"DIE-IRB/irb-result", "DIE-IRB/irb-operand"}

	frows, _, err := Faults(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range frows {
		got = append(got, label(r))
	}
	check("faults", got, six)

	rrows, _, err := Recovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range six {
		for _, rate := range []string{"1e-05", "0.0001", "0.001"} {
			want = append(want, c+"@"+rate)
		}
	}
	got = nil
	for _, r := range rrows {
		got = append(got, fmt.Sprintf("%s@%g", label(r.FaultRow), r.Rate))
	}
	check("recovery", got, want)

	_, trows, tbl, err := TRBAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want = nil, nil
	for _, r := range trows {
		got = append(got, label(r))
	}
	prev, out := -1, tbl.String()
	for _, site := range []string{"fu", "forward", "irb-result", "irb-operand"} {
		want = append(want, "DIE-TRB/"+site)
		i := strings.Index(out, "fault@"+site+" ")
		if i <= prev {
			t.Errorf("trb table row fault@%s missing or out of order:\n%s", site, out)
		}
		prev = i
	}
	check("trb campaign", got, want)

	rows, _, err := Frontier(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Inj.Site != "" {
			t.Errorf("%s: frontier row carries site %q, want none", r.Mode, r.Inj.Site)
		}
	}
}
