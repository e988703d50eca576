package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hotprefetch"
)

// runOut runs the command in-process and returns its report.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// field returns the value of a "name  value" report line.
func field(t *testing.T, report, name string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + `\s+(\d+)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report has no %q line:\n%s", name, report)
	}
	return m[1]
}

// TestProfileBenchmark profiles a catalog benchmark and prints its top
// streams.
func TestProfileBenchmark(t *testing.T) {
	out := runOut(t, "-bench", "mcf", "-refs", "20000", "-top", "3")
	if got := field(t, out, "traced refs"); got != "20000" {
		t.Errorf("traced refs = %s, want 20000", got)
	}
	if field(t, out, "hot streams") == "0" {
		t.Fatalf("no hot streams detected:\n%s", out)
	}
	if !strings.Contains(out, "#1 ") || !strings.Contains(out, "#3 ") || strings.Contains(out, "#4 ") {
		t.Errorf("want exactly the top 3 streams printed:\n%s", out)
	}
}

// TestSaveLoadRoundTrip captures a trace with -save and analyzes it again
// with -load: both runs must see the same references and the same streams.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.hds")
	saved := runOut(t, "-bench", "mcf", "-refs", "20000", "-save", path)
	if !strings.Contains(saved, "saved 20000 references to "+path) {
		t.Errorf("missing save line:\n%s", saved)
	}
	loaded := runOut(t, "-load", path)
	for _, name := range []string{"traced refs", "hot streams"} {
		if a, b := field(t, saved, name), field(t, loaded, name); a != b {
			t.Errorf("%s: -save run %s, -load run %s", name, a, b)
		}
	}
}

// TestPredictorAll replays the trace through every registered predictor,
// one report line each.
func TestPredictorAll(t *testing.T) {
	out := runOut(t, "-bench", "vpr", "-refs", "20000", "-top", "1", "-predictor", "all")
	_, replay, ok := strings.Cut(out, "predictor replay")
	if !ok {
		t.Fatalf("no predictor replay section:\n%s", out)
	}
	names := hotprefetch.PredictorNames()
	lines := strings.Split(strings.TrimSpace(replay), "\n")[1:]
	if len(lines) != len(names) {
		t.Fatalf("%d replay lines for %d predictors:\n%s", len(lines), len(names), replay)
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") || !strings.Contains(lines[i], "accuracy=") {
			t.Errorf("replay line %d = %q, want predictor %s", i, lines[i], name)
		}
	}
}

// TestUnknownPredictor fails before any profiling, naming the registry.
func TestUnknownPredictor(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-refs", "100", "-predictor", "nosuch"}, &out)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("run with an unknown predictor = %v, want an error naming it", err)
	}
	if out.Len() != 0 {
		t.Errorf("unknown predictor still printed a report:\n%s", out.String())
	}
}
