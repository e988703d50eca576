package hotprefetch

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§4). Each run regenerates the corresponding artifact
// and reports its headline numbers as custom metrics:
//
//	go test -bench=Figure11 -benchmem .   # paper Figure 11
//	go test -bench=Figure12 -benchmem .   # paper Figure 12
//	go test -bench=Table2   -benchmem .   # paper Table 2
//	go test -bench=Ablation -benchmem .   # §4.3 head length + fast-vs-precise
//	go test -bench=Extension -benchmem .  # §5.1 hardware prefetcher comparison
//
// Metrics are percentages relative to the unoptimized baseline ("pct",
// negative = speedup) or counts. The cmd/figures tool prints the same data
// as formatted tables.

import (
	"math/rand"
	"testing"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/workload"
)

// BenchmarkFigure11 regenerates the overhead of online profiling and
// analysis: the Base, Prof, and Hds bars per benchmark.
func BenchmarkFigure11(b *testing.B) {
	for _, p := range workload.Catalog() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := experiment.RunBenchmark(p, experiment.Figure11Modes)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.Overhead(opt.ModeBase), "base-pct")
				b.ReportMetric(run.Overhead(opt.ModeProfile), "prof-pct")
				b.ReportMetric(run.Overhead(opt.ModeHds), "hds-pct")
			}
		})
	}
}

// BenchmarkFigure12 regenerates the performance impact of dynamic
// prefetching: the No-pref, Seq-pref, and Dyn-pref bars per benchmark.
func BenchmarkFigure12(b *testing.B) {
	for _, p := range workload.Catalog() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := experiment.RunBenchmark(p, experiment.Figure12Modes)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.Overhead(opt.ModeNoPref), "nopref-pct")
				b.ReportMetric(run.Overhead(opt.ModeSeqPref), "seqpref-pct")
				b.ReportMetric(run.Overhead(opt.ModeDynPref), "dynpref-pct")
			}
		})
	}
}

// BenchmarkTable2 regenerates the detailed dynamic prefetching
// characterization: optimization cycles, traced references, hot streams,
// DFSM size, and procedures modified, per benchmark.
func BenchmarkTable2(b *testing.B) {
	for _, p := range workload.Catalog() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := experiment.RunBenchmark(p, []opt.Mode{opt.ModeDynPref})
				if err != nil {
					b.Fatal(err)
				}
				res := run.Results[opt.ModeDynPref]
				avg := res.AvgPerCycle()
				b.ReportMetric(float64(res.OptCycles()), "opt-cycles")
				b.ReportMetric(float64(avg.TracedRefs), "traced-refs")
				b.ReportMetric(float64(avg.HotStreams), "hot-streams")
				b.ReportMetric(float64(avg.DFSMStates), "dfsm-states")
				b.ReportMetric(float64(avg.ChecksInserted), "checks")
				b.ReportMetric(float64(avg.ProcsModified), "procs-modified")
			}
		})
	}
}

// BenchmarkAblationHeadLen regenerates the §4.3 prefix length study on vpr:
// headLen=2 wins; 1 is cheap but inaccurate, 3 costs more for no gain.
func BenchmarkAblationHeadLen(b *testing.B) {
	for _, hl := range []int{1, 2, 3} {
		hl := hl
		b.Run(map[int]string{1: "headlen1", 2: "headlen2", 3: "headlen3"}[hl], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiment.AblationHeadLen(workload.Vpr(), []int{hl})
				if err != nil {
					b.Fatal(err)
				}
				r := results[0]
				b.ReportMetric(r.Overhead, "overhead-pct")
				b.ReportMetric(float64(r.Result.Cache.UsefulPrefetches), "useful-prefetches")
				b.ReportMetric(float64(r.Result.Machine.Matches), "checks-executed")
			}
		})
	}
}

// BenchmarkAblationAnalysis compares the paper's fast (Figure 5) hot data
// stream detection against the precise Larus-style detector on identical
// sampled traces — the §2.3 "faster, less precise" trade-off.
func BenchmarkAblationAnalysis(b *testing.B) {
	trace := ablationTrace(100000)
	cfg := hotds.DefaultConfig()

	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sequitur.New()
			g.AppendAll(trace)
			streams := hotds.Analyze(g.Snapshot(), cfg)
			b.ReportMetric(float64(len(streams)), "streams")
		}
	})
	b.Run("precise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			streams := hotds.PreciseAnalyze(trace, cfg)
			b.ReportMetric(float64(len(streams)), "streams")
		}
	})
}

// BenchmarkExtensionHardware compares the software scheme against the §5.1
// hardware prefetchers (stride, next-line and Markov correlation) on each
// benchmark, and measures the stride-complement hybrid (§4.3).
func BenchmarkExtensionHardware(b *testing.B) {
	for _, p := range workload.Catalog() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiment.HardwareComparison([]workload.Params{p})
				if err != nil {
					b.Fatal(err)
				}
				r := results[0]
				b.ReportMetric(r.StrideOverhead, "stride-pct")
				b.ReportMetric(r.NextLineOverhead, "nextline-pct")
				b.ReportMetric(r.MarkovOverhead, "markov-pct")
				b.ReportMetric(r.DynOverhead, "dynpref-pct")
				b.ReportMetric(r.HybridOverhead, "hybrid-pct")
			}
		})
	}
}

// ablationTrace builds a stream-rich sampled trace like the profiler's.
func ablationTrace(n int) []uint64 {
	r := rand.New(rand.NewSource(11))
	var streams [][]uint64
	for s := 0; s < 20; s++ {
		st := make([]uint64, 12+r.Intn(12))
		for i := range st {
			st[i] = uint64(s*1000 + i)
		}
		streams = append(streams, st)
	}
	trace := make([]uint64, 0, n)
	for len(trace) < n {
		if r.Intn(8) == 0 {
			trace = append(trace, uint64(100000+r.Intn(5000)))
		} else {
			trace = append(trace, streams[r.Intn(len(streams))]...)
		}
	}
	return trace[:n]
}

// BenchmarkExtensionStaticVsDynamic compares one-shot static prefetching
// against the adaptive dynamic cycle (the comparison deferred to future work
// in §1): dynamic wins on phased programs, static on stable ones.
func BenchmarkExtensionStaticVsDynamic(b *testing.B) {
	for _, p := range []workload.Params{workload.Vpr(), workload.Mcf()} {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiment.StaticVsDynamic([]workload.Params{p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(results[0].Static, "static-pct")
				b.ReportMetric(results[0].Dynamic, "dynamic-pct")
			}
		})
	}
}

// BenchmarkAblationScheduling evaluates prefetch scheduling (§4.3 future
// work) under a bounded outstanding-fill budget on mcf.
func BenchmarkAblationScheduling(b *testing.B) {
	for _, chunk := range []int{0, 4} {
		chunk := chunk
		name := map[int]string{0: "all-at-match", 4: "chunk4"}[chunk]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiment.AblationScheduling(workload.Mcf(), []int{chunk})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(results[0].Overhead, "overhead-pct")
				b.ReportMetric(float64(results[0].Dropped), "dropped")
			}
		})
	}
}
