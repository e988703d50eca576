package stats

import (
	"strings"
	"testing"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// fakeRuns fabricates a deterministic two-benchmark result set.
func fakeRuns() []*experiment.Run {
	mk := func(name string, base uint64, cycles map[opt.Mode]uint64) *experiment.Run {
		r := &experiment.Run{
			Params:   workload.Params{Name: name},
			Baseline: base,
			Results:  map[opt.Mode]opt.Result{},
		}
		for m, c := range cycles {
			r.Results[m] = opt.Result{
				Mode:       m,
				ExecCycles: c,
				Cycles: []opt.CycleStats{{
					TracedRefs: 5000, HotStreams: 20,
					DFSMStates: 41, DFSMTransitions: 500, ChecksInserted: 30,
					ProcsModified: 7,
				}},
			}
		}
		return r
	}
	return []*experiment.Run{
		mk("alpha", 1000, map[opt.Mode]uint64{
			opt.ModeBase: 1030, opt.ModeProfile: 1040, opt.ModeHds: 1045,
			opt.ModeNoPref: 1060, opt.ModeSeqPref: 1100, opt.ModeDynPref: 900,
		}),
		mk("beta", 2000, map[opt.Mode]uint64{
			opt.ModeBase: 2050, opt.ModeProfile: 2070, opt.ModeHds: 2080,
			opt.ModeNoPref: 2120, opt.ModeSeqPref: 1950, opt.ModeDynPref: 1800,
		}),
	}
}

func TestRenderFigure11(t *testing.T) {
	out := RenderFigure11(fakeRuns())
	for _, want := range []string{"Figure 11", "alpha", "beta", "3.0%", "Base", "Prof", "Hds"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderFigure12(t *testing.T) {
	out := RenderFigure12(fakeRuns())
	for _, want := range []string{"Figure 12", "-10.0%", "+6.0%", "No-pref", "Dyn-pref"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	out := RenderTable2(fakeRuns())
	for _, want := range []string{"Table 2", "<41 states, 30 checks>", "5000", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderTable2SkipsRunsWithoutDynPref(t *testing.T) {
	runs := []*experiment.Run{{
		Params:  workload.Params{Name: "gamma"},
		Results: map[opt.Mode]opt.Result{opt.ModeBase: {}},
	}}
	out := RenderTable2(runs)
	if strings.Contains(out, "gamma") {
		t.Error("runs without a Dyn-pref result must be skipped")
	}
}

func TestRenderHeadLen(t *testing.T) {
	out := RenderHeadLen("vpr", []experiment.HeadLenResult{
		{HeadLen: 1, Overhead: -10.5},
		{HeadLen: 2, Overhead: -12.25},
	})
	for _, want := range []string{"vpr", "-10.5%", "-12.2%", "headLen"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderHardware(t *testing.T) {
	out := RenderHardware([]experiment.HardwareResult{
		{Name: "mcf", StrideOverhead: -3.5, MarkovOverhead: -15, DynOverhead: -17, HybridOverhead: -22.7},
	})
	for _, want := range []string{"mcf", "-3.5%", "-15.0%", "-17.0%", "stride", "dyn+stride", "-22.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderStaticDyn(t *testing.T) {
	out := RenderStaticDyn([]experiment.StaticDynResult{
		{Name: "vpr", Phases: 2, Static: -15, Dynamic: -23.5},
	})
	for _, want := range []string{"vpr", "-15.0%", "-23.5%", "phases"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderScheduling(t *testing.T) {
	out := RenderScheduling("mcf", []experiment.ScheduleResult{
		{Chunk: 0, Overhead: -7.1, Dropped: 996741, UsefulRatio: 0.51},
		{Chunk: 4, Overhead: -10.6, Dropped: 246780, UsefulRatio: 0.69},
	})
	for _, want := range []string{"all-at-match", "4/check", "-10.6%", "996741"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCSVRenderers(t *testing.T) {
	runs := fakeRuns()
	f11 := CSVFigure11(runs)
	if !strings.HasPrefix(f11, "benchmark,base_pct") || !strings.Contains(f11, "alpha,3.000") {
		t.Errorf("CSVFigure11:\n%s", f11)
	}
	f12 := CSVFigure12(runs)
	if !strings.Contains(f12, "alpha,6.000,10.000,-10.000") {
		t.Errorf("CSVFigure12:\n%s", f12)
	}
	t2 := CSVTable2(runs)
	if !strings.Contains(t2, "alpha,1,5000,20,41,30,7") {
		t.Errorf("CSVTable2:\n%s", t2)
	}
	if lines := strings.Count(t2, "\n"); lines != 3 {
		t.Errorf("CSVTable2 has %d lines, want 3", lines)
	}
}

func TestRenderStabilityAndMotivation(t *testing.T) {
	out := RenderStability([]experiment.StabilityResult{
		{Name: "mcf", StreamsA: 39, StreamsB: 39, Overlap: 1.0, Concrete: 0.0},
	})
	for _, want := range []string{"mcf", "39/39", "1.00", "0.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("stability render missing %q:\n%s", want, out)
		}
	}
	out = RenderMotivation([]experiment.MotivationResult{
		{Name: "vpr", Streams: 44, RefShare: 0.59, L1MissShare: 0.59, L2MissShare: 0.50},
	})
	for _, want := range []string{"vpr", "44", "59%", "50%"} {
		if !strings.Contains(out, want) {
			t.Errorf("motivation render missing %q:\n%s", want, out)
		}
	}
}

func TestChartRenderers(t *testing.T) {
	runs := fakeRuns()
	out := ChartFigure11(runs)
	for _, want := range []string{"Figure 11", "alpha", "base", "hds", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart 11 missing %q:\n%s", want, out)
		}
	}
	out = ChartFigure12(runs)
	for _, want := range []string{"Figure 12", "dyn-pref", "-10.0%", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart 12 missing %q:\n%s", want, out)
		}
	}
	// A speedup bar sits left of the axis: the '#'s come before '|' on the
	// dyn-pref line of alpha.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "dyn-pref") && strings.Contains(line, "-10.0%") {
			bar := line[strings.Index(line, "dyn-pref")+8:]
			hash := strings.Index(bar, "#")
			pipe := strings.Index(bar, "|")
			if hash < 0 || pipe < 0 || hash > pipe {
				t.Errorf("speedup bar should grow left of the axis: %q", line)
			}
		}
	}
}

func TestBarClamping(t *testing.T) {
	if b := bar(100, 10, 8); !strings.Contains(b, "########") {
		t.Errorf("oversized bar must clamp to width: %q", b)
	}
	if b := bar(0, 10, 8); strings.Contains(b, "#") {
		t.Errorf("zero bar must be empty: %q", b)
	}
	if b := bar(5, 0, 8); len(b) != 17 {
		t.Errorf("zero scale must not panic or misalign: %q", b)
	}
}
