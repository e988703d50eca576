// Command benchdiff compares a fresh `go test -bench` run against the
// checked-in baseline JSONs (BENCH_core.json, BENCH_pipeline.json) and fails
// when a benchmark regresses beyond the tolerance. It prints a markdown diff
// table, so CI can append it to the job summary:
//
//	go test -run '^$' -bench . -benchmem . ./internal/ring | \
//	    go run ./cmd/benchdiff -baseline BENCH_core.json -baseline BENCH_pipeline.json
//
// ns/op is gated at +tolerance (default 20%): simulator-grade CI machines
// are noisy, so only a regression past the band fails; a large improvement
// is reported but passes (refresh the baseline when it sticks). allocs/op
// is gated in both directions with the same relative band — for the
// zero-alloc hot paths the band is exactly zero, so a single steady-state
// allocation appearing is a hard failure. Every baseline entry must appear
// in the run: a missing one fails the diff, so drop an entry from the
// baseline in the same change that deletes or renames its benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// measure is one benchmark's numbers, from either side of the diff.
type measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	hasAllocs   bool
}

// baselineEntry accepts both checked-in shapes: BENCH_pipeline.json records
// flat measures; BENCH_core.json records {"pre": ..., "post": ...} pairs,
// where post is the current expected state.
type baselineEntry struct {
	measure
	Post *measure `json:"post"`
}

type baselineFile struct {
	Benchmarks map[string]json.RawMessage `json:"benchmarks"`
}

// multiFlag collects a repeatable -baseline flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var baselines multiFlag
	fs.Var(&baselines, "baseline", "baseline JSON file (repeatable)")
	input := fs.String("input", "", "read `go test -bench` output from this file instead of stdin")
	tolerance := fs.Float64("tolerance", 0.20, "relative tolerance band")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(baselines) == 0 {
		return fmt.Errorf("at least one -baseline file is required")
	}

	base := map[string]measure{}
	for _, path := range baselines {
		if err := loadBaseline(path, base); err != nil {
			return err
		}
	}

	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	current, err := parseBenchOutput(in)
	if err != nil {
		return err
	}

	return report(out, base, current, *tolerance)
}

func loadBaseline(path string, into map[string]measure) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for name, raw := range bf.Benchmarks {
		var e baselineEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("%s: %s: %w", path, name, err)
		}
		m := e.measure
		if e.Post != nil {
			m = *e.Post
		}
		// The checked-in zero-alloc paths record allocs explicitly; treat
		// every baseline entry as alloc-gated.
		m.hasAllocs = true
		into[name] = m
	}
	return nil
}

// pkgPrefixes maps `pkg:` header lines in bench output to the name prefix
// the baseline files use (the root package is unprefixed).
var pkgPrefixes = map[string]string{
	"hotprefetch/internal/ring":      "ring.",
	"hotprefetch/internal/tracefile": "tracefile.",
	"hotprefetch/client":             "client.",
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBenchOutput reads standard `go test -bench` text: `pkg:` headers
// select the name prefix; each benchmark line yields ns/op and, with
// -benchmem, B/op and allocs/op. The `-N` GOMAXPROCS suffix is stripped so
// names match the baselines regardless of the CI machine's core count.
func parseBenchOutput(r io.Reader) (map[string]measure, error) {
	out := map[string]measure{}
	prefix := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			prefix = pkgPrefixes[strings.TrimSpace(pkg)]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := prefix + m[1]
		var meas measure
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				meas.NsPerOp = v
			case "B/op":
				meas.BytesPerOp = v
			case "allocs/op":
				meas.AllocsPerOp = v
				meas.hasAllocs = true
			}
		}
		if meas.NsPerOp == 0 {
			continue // e.g. a custom-metric-only line
		}
		out[name] = meas
	}
	return out, sc.Err()
}

func report(w io.Writer, base, current map[string]measure, tol float64) error {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "| benchmark | base ns/op | now ns/op | Δ | base allocs | now allocs | status |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	failed := 0
	missing := 0
	for _, name := range names {
		b := base[name]
		c, ok := current[name]
		if !ok {
			missing++
			fmt.Fprintf(w, "| %s | %s | — | — | %.0f | — | MISSING |\n", name, fmtNs(b.NsPerOp), b.AllocsPerOp)
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		switch {
		case delta > tol:
			status = "**FAIL: slower**"
			failed++
		case delta < -tol:
			status = "improved (refresh baseline?)"
		}
		switch {
		case b.hasAllocs && !c.hasAllocs && b.AllocsPerOp == 0:
			// A zero-alloc baseline compared against a run without
			// -benchmem would silently skip the alloc gate — the exact
			// regression the gate exists to catch slips through unchecked.
			status = "**FAIL: no alloc data (zero-alloc baseline; run with -benchmem)**"
			failed++
		case b.hasAllocs && c.hasAllocs && !allocsWithin(b.AllocsPerOp, c.AllocsPerOp, tol):
			status = "**FAIL: allocs**"
			failed++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% | %.0f | %s | %s |\n",
			name, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), 100*delta, b.AllocsPerOp, fmtAllocs(c), status)
	}
	fmt.Fprintf(w, "\n%d compared, %d failed, %d missing from this run (tolerance ±%.0f%%)\n",
		len(names)-missing, failed, missing, 100*tol)
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond ±%.0f%%", failed, 100*tol)
	}
	// A baseline entry the run did not produce — a deleted, renamed or
	// filtered-out bench — would otherwise shrink the gate silently.
	if missing > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from this run", missing)
	}
	return nil
}

// allocsWithin applies the relative band to allocs/op; a zero baseline
// admits only zero.
func allocsWithin(base, now, tol float64) bool {
	return now >= base*(1-tol) && now <= base*(1+tol)
}

func fmtNs(v float64) string {
	if v >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func fmtAllocs(m measure) string {
	if !m.hasAllocs {
		return "—"
	}
	return strconv.FormatFloat(m.AllocsPerOp, 'f', 0, 64)
}
