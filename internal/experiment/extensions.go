package experiment

import (
	"fmt"

	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// StaticDynResult compares one-shot static prefetching against the paper's
// adaptive dynamic scheme on one benchmark (the comparison the paper defers
// to future work, §1). Overheads are percent versus the unoptimized
// baseline; negative values are speedups.
type StaticDynResult struct {
	Name    string
	Phases  int // program phases in the workload (1 = no phase behaviour)
	Static  float64
	Dynamic float64
}

// StaticVsDynamic runs each benchmark under (a) static one-shot prefetching
// — profile once, inject once, keep forever — and (b) the full dynamic
// cycle. The paper's hypothesis (§1): "for programs with distinct phase
// behavior, a dynamic prefetching scheme that adapts to program phase
// transitions may perform better."
func StaticVsDynamic(params []workload.Params) ([]StaticDynResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	out := make([]StaticDynResult, 0, len(params))
	for _, p := range params {
		staticCfg := OptConfig(opt.ModeDynPref)
		staticCfg.Static = true
		run, err := runBenchmark(p, []opt.Mode{opt.ModeDynPref}, func(opt.Mode) opt.Config {
			return staticCfg
		}, workload.CacheConfig())
		if err != nil {
			return nil, fmt.Errorf("%s static: %w", p.Name, err)
		}
		dynRun, err := RunBenchmark(p, []opt.Mode{opt.ModeDynPref})
		if err != nil {
			return nil, fmt.Errorf("%s dynamic: %w", p.Name, err)
		}
		out = append(out, StaticDynResult{
			Name:    p.Name,
			Phases:  p.Phases,
			Static:  run.Overhead(opt.ModeDynPref),
			Dynamic: dynRun.Overhead(opt.ModeDynPref),
		})
	}
	return out, nil
}

// ScheduleResult is one row of the prefetch scheduling extension: overall
// overhead and prefetch lateness under a given chunk size.
type ScheduleResult struct {
	Chunk           int // 0 = the paper's issue-all-at-match behaviour
	Overhead        float64
	Dropped         uint64 // prefetches lost at the outstanding-fill limit
	LateStallCycles uint64
	UsefulRatio     float64
}

// AblationScheduling evaluates the §4.3 future-work idea of scheduling
// prefetches instead of issuing a matched stream's whole tail at once:
// chunked issue spreads fills over the stream's own progress. The study
// runs under a memory system with a bounded number of outstanding prefetch
// fills (8 MSHRs) — the constraint that makes bursty issue lossy and
// scheduling worthwhile; with unlimited outstanding fills, immediate issue
// maximizes lead time and wins.
func AblationScheduling(p workload.Params, chunks []int) ([]ScheduleResult, error) {
	if chunks == nil {
		chunks = []int{0, 2, 4, 8}
	}
	cache := workload.CacheConfig()
	cache.MaxInflight = 8
	out := make([]ScheduleResult, 0, len(chunks))
	for _, chunk := range chunks {
		chunk := chunk
		run, err := runBenchmark(p, []opt.Mode{opt.ModeDynPref}, func(m opt.Mode) opt.Config {
			cfg := OptConfig(m)
			cfg.ScheduleChunk = chunk
			return cfg
		}, cache)
		if err != nil {
			return nil, err
		}
		res := run.Results[opt.ModeDynPref]
		useful := 0.0
		if res.Cache.Prefetches > 0 {
			useful = float64(res.Cache.UsefulPrefetches) / float64(res.Cache.Prefetches)
		}
		out = append(out, ScheduleResult{
			Chunk:           chunk,
			Overhead:        run.Overhead(opt.ModeDynPref),
			Dropped:         res.Cache.PrefetchDrops,
			LateStallCycles: res.Cache.LateStallCycles,
			UsefulRatio:     useful,
		})
	}
	return out, nil
}
