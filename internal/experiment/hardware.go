package experiment

import (
	"fmt"

	"hotprefetch/internal/baseline"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// HardwareResult compares the dynamic software prefetching scheme against
// the hardware prefetchers of §5.1 on one benchmark. Overheads are percent
// versus the unoptimized baseline (negative = speedup).
type HardwareResult struct {
	Name             string
	Baseline         uint64
	StrideOverhead   float64
	StrideStats      baseline.StrideStats
	NextLineOverhead float64
	NextLineStats    baseline.NextLineStats
	MarkovOverhead   float64
	MarkovStats      baseline.MarkovStats
	DynOverhead      float64
	// HybridOverhead is the dynamic scheme with a stride prefetcher running
	// beside it — the paper's suggestion that "a stride-based prefetcher
	// could complement our scheme by prefetching data address sequences
	// that do not qualify as hot data streams" (§4.3).
	HybridOverhead float64
}

// HardwareComparison runs each benchmark under (a) a stride prefetcher, (b)
// a tagged next-line prefetcher, (c) a Markov correlation prefetcher, (d)
// the paper's dynamic software scheme, and (e) that scheme with the stride
// prefetcher attached beside it. It substantiates the §4.3 observation that stride prefetching
// cannot cover hot data stream addresses, and relates the software scheme to
// its closest hardware relative (§5.1).
func HardwareComparison(params []workload.Params) ([]HardwareResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	cache := workload.CacheConfig()
	out := make([]HardwareResult, 0, len(params))
	for _, p := range params {
		inst := workload.Build(p)
		res := HardwareResult{Name: p.Name}

		base, err := opt.RunBaseline(inst.NewMachine(cache, false))
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", p.Name, err)
		}
		res.Baseline = base

		// Stride prefetcher on the uninstrumented program.
		mStride := inst.NewMachine(cache, false)
		stride := baseline.NewStride(mStride.Cache, 256, 2)
		if err := mStride.RunToCompletion(); err != nil {
			return nil, fmt.Errorf("%s stride: %w", p.Name, err)
		}
		res.StrideOverhead = pct(mStride.Cycles, base)
		res.StrideStats = stride.Stats()

		// Tagged next-line prefetcher (stream-buffer-style, [17]).
		mNext := inst.NewMachine(cache, false)
		next := baseline.NewNextLine(mNext.Cache, 2)
		if err := mNext.RunToCompletion(); err != nil {
			return nil, fmt.Errorf("%s next-line: %w", p.Name, err)
		}
		res.NextLineOverhead = pct(mNext.Cycles, base)
		res.NextLineStats = next.Stats()

		// Markov correlation prefetcher.
		mMarkov := inst.NewMachine(cache, false)
		markov := baseline.NewMarkov(mMarkov.Cache, 2048, 2, 2)
		if err := mMarkov.RunToCompletion(); err != nil {
			return nil, fmt.Errorf("%s markov: %w", p.Name, err)
		}
		res.MarkovOverhead = pct(mMarkov.Cycles, base)
		res.MarkovStats = markov.Stats()

		// The paper's software scheme.
		dyn, err := opt.Run(inst.NewMachine(cache, true), OptConfig(opt.ModeDynPref))
		if err != nil {
			return nil, fmt.Errorf("%s dyn: %w", p.Name, err)
		}
		res.DynOverhead = pct(dyn.ExecCycles, base)

		// The software scheme with the complementary stride prefetcher.
		mHybrid := inst.NewMachine(cache, true)
		baseline.NewStride(mHybrid.Cache, 256, 2)
		hyb, err := opt.Run(mHybrid, OptConfig(opt.ModeDynPref))
		if err != nil {
			return nil, fmt.Errorf("%s dyn+stride: %w", p.Name, err)
		}
		res.HybridOverhead = pct(hyb.ExecCycles, base)

		out = append(out, res)
	}
	return out, nil
}

func pct(cycles, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(cycles)/float64(base) - 1)
}
