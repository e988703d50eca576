package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: hotprefetch
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProfileAdd-8      	 2850992	       430.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkMatcherObserve-8  	212480155	         5.60 ns/op	       0 B/op	       0 allocs/op
BenchmarkCycleTurnaroundInline-8   	 3105198	       386.0 ns/op	    419582 max_stall_ns	       5 B/op	       0 allocs/op
BenchmarkAddBatch/batch16-8        	 2592928	       460.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFigure11Base-8            	       1	999999999 ns/op
PASS
pkg: hotprefetch/internal/ring
BenchmarkPushPop-8         	67573528	        17.70 ns/op	       0 B/op	       0 allocs/op
PASS
pkg: hotprefetch/client
BenchmarkClientPublish-8   	   17665	     33900 ns/op	    1496 B/op	      12 allocs/op
PASS
`

const sampleBaseline = `{
  "benchmarks": {
    "BenchmarkProfileAdd": {
      "pre": {"ns_per_op": 921.0, "bytes_per_op": 292, "allocs_per_op": 6},
      "post": {"ns_per_op": 420.1, "bytes_per_op": 0, "allocs_per_op": 0}
    },
    "BenchmarkMatcherObserve": {
      "pre": {"ns_per_op": 11.98, "bytes_per_op": 0, "allocs_per_op": 0},
      "post": {"ns_per_op": 5.493, "bytes_per_op": 0, "allocs_per_op": 0}
    },
    "BenchmarkCycleTurnaroundInline": {"ns_per_op": 386.3, "max_stall_ns": 419582},
    "BenchmarkAddBatch/batch16": {"ns_per_op": 462.7, "bytes_per_op": 0, "allocs_per_op": 0},
    "ring.BenchmarkPushPop": {"ns_per_op": 17.60, "bytes_per_op": 0, "allocs_per_op": 0},
    "client.BenchmarkClientPublish": {"ns_per_op": 33867, "bytes_per_op": 1496, "allocs_per_op": 12}
  }
}`

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffClean compares a run that sits within tolerance of the baseline:
// every row must be matched (both baseline shapes, the subbenchmark name,
// the custom-metric line, and the ring.-prefixed cross-package name) and
// the command must succeed.
func TestDiffClean(t *testing.T) {
	path := writeBaseline(t, sampleBaseline)
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "6 compared, 0 failed, 0 missing") {
		t.Errorf("wrong summary:\n%s", got)
	}
	for _, name := range []string{
		"BenchmarkProfileAdd", "BenchmarkMatcherObserve",
		"BenchmarkCycleTurnaroundInline", "BenchmarkAddBatch/batch16",
		"ring.BenchmarkPushPop", "client.BenchmarkClientPublish",
	} {
		if !strings.Contains(got, "| "+name+" |") {
			t.Errorf("missing row for %s:\n%s", name, got)
		}
	}
	if strings.Contains(got, "FAIL") {
		t.Errorf("unexpected failure row:\n%s", got)
	}
}

// TestDiffRegression makes the baseline much faster than the run, so every
// ns/op comparison breaches +20% and the command must fail.
func TestDiffRegression(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkProfileAdd": {"ns_per_op": 100.0, "allocs_per_op": 0}
	}}`)
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out)
	if err == nil {
		t.Fatalf("run succeeded on a 4x regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL: slower") {
		t.Errorf("missing regression marker:\n%s", out.String())
	}
}

// TestDiffAllocRegression pins the zero-alloc gate: a baseline of 0
// allocs/op admits only 0, whatever the tolerance.
func TestDiffAllocRegression(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkProfileAdd": {"ns_per_op": 430.0, "allocs_per_op": 0}
	}}`)
	bench := "pkg: hotprefetch\nBenchmarkProfileAdd-8 100 430.0 ns/op 16 B/op 1 allocs/op\n"
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(bench), &out)
	if err == nil {
		t.Fatalf("run succeeded with a new allocation on a zero-alloc path:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL: allocs") {
		t.Errorf("missing alloc marker:\n%s", out.String())
	}
}

// TestDiffNoAllocData: a zero-alloc baseline compared against a run made
// without -benchmem must fail — otherwise the alloc gate silently skips.
func TestDiffNoAllocData(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkProfileAdd": {"ns_per_op": 430.0, "allocs_per_op": 0},
		"BenchmarkWithAllocs": {"ns_per_op": 100.0, "allocs_per_op": 5}
	}}`)
	// Neither line carries allocs/op; only the zero-alloc baseline fails.
	bench := "pkg: hotprefetch\n" +
		"BenchmarkProfileAdd-8 100 430.0 ns/op\n" +
		"BenchmarkWithAllocs-8 100 100.0 ns/op\n"
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(bench), &out)
	if err == nil {
		t.Fatalf("run succeeded with no alloc data against a zero-alloc baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL: no alloc data") {
		t.Errorf("missing no-alloc-data marker:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "1 benchmark(s)") {
		t.Errorf("nonzero-alloc baseline without data should pass, got: %v", err)
	}
}

// TestDiffImprovementPasses: faster than the band reports but does not fail.
func TestDiffImprovementPasses(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkProfileAdd": {"ns_per_op": 2000.0, "allocs_per_op": 0}
	}}`)
	var out strings.Builder
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("run failed on an improvement: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Errorf("missing improvement note:\n%s", out.String())
	}
}

// TestDiffMissing: a baseline entry absent from the run fails the diff even
// when every other row passes — a deleted or renamed bench must not shrink
// the gate silently.
func TestDiffMissing(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks": {
		"BenchmarkProfileAdd": {"ns_per_op": 430.0, "allocs_per_op": 0},
		"BenchmarkNoSuchThing": {"ns_per_op": 10.0, "allocs_per_op": 0}
	}}`)
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out)
	if err == nil || !strings.Contains(err.Error(), "1 baseline benchmark(s) missing") {
		t.Fatalf("run with a missing baseline bench = %v, want a missing-bench error\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "| BenchmarkNoSuchThing |") || !strings.Contains(got, "MISSING") {
		t.Errorf("missing-benchmark row not reported:\n%s", got)
	}
	if !strings.Contains(got, "1 compared, 0 failed, 1 missing") {
		t.Errorf("wrong summary:\n%s", got)
	}
}

// TestErrors pins the argument failure modes.
func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Error("run succeeded with no baselines")
	}
	if err := run([]string{"-baseline", "/nonexistent.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("run succeeded with an unreadable baseline")
	}
	path := writeBaseline(t, "{not json")
	if err := run([]string{"-baseline", path}, strings.NewReader(""), &out); err == nil {
		t.Error("run succeeded with a corrupt baseline")
	}
}
