package cliutil

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestSplitBenchmarks(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"gzip", []string{"gzip"}},
		{"gzip,mesa", []string{"gzip", "mesa"}},
		{" gzip , mesa ,", []string{"gzip", "mesa"}},
	}
	for _, c := range cases {
		if got := SplitBenchmarks(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitBenchmarks(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	insns := Insns(fs, 1234)
	verify := Verify(fs)
	bench := Bench(fs, "gzip", "usage")
	jobs := Jobs(fs)
	format := Format(fs)
	if err := fs.Parse([]string{"-insns", "99", "-verify", "-bench", "mesa", "-j", "3", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if *insns != 99 || !*verify || *bench != "mesa" || *jobs != 3 || *format != "csv" {
		t.Errorf("parsed %d/%v/%q/%d/%q", *insns, *verify, *bench, *jobs, *format)
	}

	fs = flag.NewFlagSet("defaults", flag.ContinueOnError)
	jobs = Jobs(fs)
	format = Format(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *jobs < 1 {
		t.Errorf("default -j = %d, want >= 1", *jobs)
	}
	if *format != "table" {
		t.Errorf("default -format = %q", *format)
	}
}

func TestRenderFormats(t *testing.T) {
	tbl := stats.NewTable("demo", "a", "b")
	tbl.AddRow("x", 1)

	plain, err := Render(tbl, "table")
	if err != nil || !strings.Contains(plain, "demo") {
		t.Errorf("table render: %q, %v", plain, err)
	}
	if def, err := Render(tbl, ""); err != nil || def != plain {
		t.Errorf("empty format should render as table")
	}
	csv, err := Render(tbl, "csv")
	if err != nil || !strings.Contains(csv, "a,b") {
		t.Errorf("csv render: %q, %v", csv, err)
	}
	out, err := Render(tbl, "json")
	if err != nil {
		t.Fatalf("json render: %v", err)
	}
	var decoded struct {
		Title   string
		Headers []string
		Rows    [][]string
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if decoded.Title != "demo" || len(decoded.Headers) != 2 || len(decoded.Rows) != 1 {
		t.Errorf("json content: %+v", decoded)
	}

	if _, err := Render(tbl, "yaml"); err == nil ||
		!strings.Contains(err.Error(), "yaml") {
		t.Errorf("unknown format error = %v", err)
	}
}
