package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the metric catalogue the benchmark declares.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmoke runs every workload at tiny size, traced and untraced, and
// checks that every check passes and that the run prints exactly the
// declared metrics of its mode — end-to-end untraced, per-layer traced —
// each with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	declared := [2]map[string]string{{}, {}}
	for _, m := range bj.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for mode, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 8, trace: trace, out: t.TempDir(), size: tinySizes}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			for name, unit := range declared[mode] {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s (got %+v)", w.Name, trace, name, unit, m)
				}
			}
			for name := range res.Metrics {
				if _, ok := declared[mode][name]; !ok {
					t.Errorf("%s trace=%v: metric %s not declared for this mode", w.Name, trace, name)
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},   // never ten samples beyond any percentile
		{20, 50, true},  // p90 has 2 beyond, p50 has 10
		{100, 90, true}, // p90 has exactly 10 beyond
		{999, 90, true}, // p99 has 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n, 50, 90, 99, 99.9)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 1, Name: "a.inner", Start: ms(15), End: ms(25)},
		{ID: 3, Parent: 1, Name: "a.inner2", Start: ms(20), End: ms(30)}, // overlaps a.inner
		{ID: 4, Parent: 0, Name: "b", Start: ms(50), End: ms(95)},
		{ID: 5, Parent: 4, Name: "b.spill", Start: ms(90), End: ms(120)}, // clipped to b
	}
	want := []time.Duration{ms(25), ms(15), ms(10), ms(10), ms(40), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	// Without the spill, non-root self time covers 80 of the root's 100 ms.
	if u := unattributed(spans[:5]); u < 0.1999 || u > 0.2001 {
		t.Errorf("unattributed = %v, want 0.2", u)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true, "test")
	root := tr.begin("pass")
	tr.do("child", func() { tr.do("grandchild", func() {}) })
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	off := newTracer(false, "test")
	off.do("x", func() {})
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}

func TestSeededInputsRepeat(t *testing.T) {
	o := options{seed: 3, programs: workloads["memory-bound"], size: tinySizes}
	a, err := makeIngestInputs(o, 1000, newTracer(false, ""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeIngestInputs(o, 1000, newTracer(false, ""))
	if err != nil {
		t.Fatal(err)
	}
	o.seed = 4
	c, err := makeIngestInputs(o, 1000, newTracer(false, ""))
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *ingestInputs) bool {
		for i := range x.traces {
			for k := range x.traces[i] {
				if x.progs[i].Name != y.progs[i].Name || len(x.traces[i][k]) != len(y.traces[i][k]) {
					return false
				}
				for j := range x.traces[i][k] {
					if x.traces[i][k][j] != y.traces[i][k][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed produced different inputs")
	}
	if same(a, c) {
		t.Error("different seeds produced identical inputs")
	}
	var names []string
	for _, p := range a.progs {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); len(a.progs) != len(o.programs) {
		t.Errorf("ingest rounds cover %s, want the workload's programs %v", got, o.programs)
	}
}
