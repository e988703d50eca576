package experiment

// Sampled-vs-lossless profiling comparison: the quantitative backing for the
// paper's premise that bursty sampling "suffices to detect hot data
// streams" (§2.2, Table 2). The same reference trace is profiled twice —
// once losslessly, once through the bursty-tracing counter machine — and
// the two hot-stream sets are compared by pc sequence. A sampled profile
// sees bursts (contiguous windows) of the trace, so it rediscovers a hot
// stream as a cyclic fragment of the lossless stream's pc sequence: stream
// [a b c d] sampled in bursts may surface as [c d a b] or [b c d a b c] —
// same regularity, different phase and length. Matching is therefore
// cyclic-fragment containment, not exact signature equality.

import (
	"fmt"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/workload"
)

// SamplingResult compares one benchmark's hot streams detected from a
// lossless profile against those detected from a bursty-sampled profile of
// the same trace.
type SamplingResult struct {
	Name        string
	TotalRefs   int     // references in the captured trace
	SampledRefs int     // references the burst controller admitted
	Rate        float64 // achieved sampling rate SampledRefs/TotalRefs

	LosslessStreams int // hot streams found by the lossless profile
	SampledStreams  int // hot streams found by the sampled profile

	// TopRecall is the fraction of the lossless top-10 streams (by heat)
	// the sampled profile rediscovered (as a cyclic fragment or extension);
	// HeatRecall weights recall by heat over all lossless streams;
	// Precision is the fraction of sampled streams that correspond to some
	// lossless stream (the sampled profile should not hallucinate
	// regularity that is not in the full trace).
	TopRecall  float64
	HeatRecall float64
	Precision  float64
}

// sampleTrace runs the trace through a bursty-tracing controller and
// returns the references admitted during awake instrumented bursts.
func sampleTrace(trace []ref.Ref, cfg burst.Config) []ref.Ref {
	c := burst.New(cfg)
	out := make([]ref.Ref, 0, len(trace)/64)
	for _, r := range trace {
		instrumented, phaseEnded := c.Check()
		if instrumented && c.Awake() {
			out = append(out, r)
		}
		if phaseEnded {
			if c.Awake() {
				c.Hibernate()
			} else {
				c.Wake()
			}
		}
	}
	return out
}

// SamplingComparison profiles each benchmark's trace losslessly and through
// the given burst configuration, and reports how much of the hot-stream set
// sampling preserves. refs <= 0 means 240000 references per benchmark; a
// nil params slice means the full catalog.
//
// The analysis uses the paper's §4.1 stream thresholds for both profiles;
// for the sampled profile the coverage floor applies to the sampled trace
// length (coverage is relative to what was collected, exactly as in the
// paper).
func SamplingComparison(params []workload.Params, refs int, bcfg burst.Config) ([]SamplingResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	if refs <= 0 {
		refs = 240000
	}
	acfg := AnalysisConfig()
	out := make([]SamplingResult, 0, len(params))
	for _, p := range params {
		trace, err := CaptureTrace(p, refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		sampled := sampleTrace(trace, bcfg)
		full, _ := analyzeTrace(trace, acfg)
		samp, _ := analyzeTrace(sampled, acfg)
		r := SamplingResult{
			Name:            p.Name,
			TotalRefs:       len(trace),
			SampledRefs:     len(sampled),
			LosslessStreams: len(full),
			SampledStreams:  len(samp),
		}
		if len(trace) > 0 {
			r.Rate = float64(len(sampled)) / float64(len(trace))
		}
		r.TopRecall, r.HeatRecall, r.Precision = streamAgreement(full, samp)
		out = append(out, r)
	}
	return out, nil
}

// PaperSamplingConfig returns the paper's awake-phase counters (0.5%
// sampling in bursts of 60) with hibernation effectively disabled, so a
// short captured trace is sampled at the anchor rate throughout instead of
// spending most of its references hibernating. The full awake/hibernate
// alternation is exercised by the overhead experiments (Figure 11) and the
// service-level burst front end; here the question is purely what a 0.5%
// sample preserves.
func PaperSamplingConfig() burst.Config {
	cfg := burst.PaperConfig()
	cfg.NAwake0 = 1 << 30
	return cfg
}

// ScaledSamplingConfig returns a 5% sampling rate with the paper's burst
// length, awake-only for the same reason. Burst length is the lever that
// decides whether sampling sees streams at all: a burst must span at least
// two consecutive instances of a hot stream (~2.5x the §4.1 stream lengths)
// for Sequitur to observe the repetition inside one window — the paper's
// 60-reference bursts clear that bar for its 10–100 element streams, while
// e.g. 20-reference bursts at the same rate find almost nothing.
func ScaledSamplingConfig() burst.Config {
	cfg := PaperSamplingConfig()
	cfg.NCheck0 = 1140 // 60 instrumented per 1200 checks = 5%
	return cfg
}
