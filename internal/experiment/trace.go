package experiment

// The one capture and analyze path every trace-replay study shares:
// CaptureTrace records a benchmark's raw data references, and the analyze
// helpers compress a trace with Sequitur and extract its hot streams as
// full references (§2).

import (
	"fmt"
	"strings"

	"hotprefetch/internal/hotds"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/workload"
)

// rawCollector captures the first `budget` raw data references of a run.
type rawCollector struct {
	refs   []ref.Ref
	budget int
	m      *machine.Machine
}

func (c *rawCollector) Check(pc int) (machine.Version, uint64) {
	return machine.VersionInstrumented, 0
}

func (c *rawCollector) TraceRef(pc int, addr machine.Word, isWrite bool) uint64 {
	c.refs = append(c.refs, ref.Ref{PC: pc, Addr: addr})
	c.budget--
	if c.budget <= 0 {
		c.m.Yield()
	}
	return 0
}

func (c *rawCollector) Match(pc int, addr machine.Word) ([]machine.Word, uint64) {
	return nil, 0
}

// CaptureTrace runs the benchmark and returns its first `refs` data
// references. The root package's differential predictor tests replay these
// traces, so capture is exported rather than duplicated there.
func CaptureTrace(p workload.Params, refs int) ([]ref.Ref, error) {
	return captureInstanceTrace(workload.Build(p), refs)
}

// captureInstanceTrace is CaptureTrace over an already-built workload
// instance (the extended workloads are built by name, not Params).
func captureInstanceTrace(inst *workload.Instance, refs int) ([]ref.Ref, error) {
	m := inst.NewMachine(workload.CacheConfig(), true)
	col := &rawCollector{refs: make([]ref.Ref, 0, refs), budget: refs, m: m}
	m.RT = col
	m.Start()
	for col.budget > 0 {
		st, err := m.Run(0)
		if err != nil {
			return nil, err
		}
		if st == machine.Halted {
			break
		}
	}
	return col.refs, nil
}

// internTrace maps a trace onto dense grammar symbols.
func internTrace(trace []ref.Ref) (*ref.Interner, []uint64) {
	in := ref.NewInterner()
	vals := make([]uint64, len(trace))
	for i, r := range trace {
		vals[i] = uint64(in.Intern(r))
	}
	return in, vals
}

// hotStreams extracts g's hot streams, hottest first, resolving their
// symbols through the interner that built g.
func hotStreams(g *sequitur.Grammar, in *ref.Interner, cfg hotds.Config) []ref.Stream {
	infos := hotds.Analyze(g.Snapshot(), cfg)
	out := make([]ref.Stream, len(infos))
	for i, info := range infos {
		refs := make([]ref.Ref, len(info.Word))
		for j, sym := range info.Word {
			refs[j] = in.Ref(ref.Symbol(sym))
		}
		out[i] = ref.Stream{Refs: refs, Heat: info.Heat}
	}
	return out
}

// analyzeTrace compresses a trace losslessly and extracts its hot streams,
// also returning the grammar's size.
func analyzeTrace(trace []ref.Ref, cfg hotds.Config) ([]ref.Stream, int) {
	in, vals := internTrace(trace)
	g := sequitur.New()
	g.AppendRun(vals)
	return hotStreams(g, in, cfg), g.Size()
}

// profileStreams captures `refs` references of the benchmark and returns its
// hot data streams under the §4.1 analysis settings.
func profileStreams(p workload.Params, refs int) ([]ref.Stream, error) {
	trace, err := CaptureTrace(p, refs)
	if err != nil {
		return nil, err
	}
	streams, _ := analyzeTrace(trace, AnalysisConfig())
	return streams, nil
}

// sig renders a stream's pc sequence with full-token delimiters
// (",1,12,"), so substring containment can never match across token
// boundaries.
func sig(refs []ref.Ref) string {
	var b strings.Builder
	b.WriteByte(',')
	for _, r := range refs {
		fmt.Fprintf(&b, "%d,", r.PC)
	}
	return b.String()
}

// streamsMatch reports whether a stream found by a lossy or restructured
// profile rediscovers a lossless one. Such a profile sees the trace in
// windows, so it finds a hot stream as a cyclic fragment of the lossless
// stream's pc sequence: [a b c d] may surface as [c d a b] or
// [b c d a b c]. The match is therefore a contiguous window of the lossless
// sequence's repetition (any phase, up to two periods long), or containment
// of the whole lossless sequence.
func streamsMatch(lossless, other ref.Stream) bool {
	doubled := sig(append(append([]ref.Ref(nil), lossless.Refs...), lossless.Refs...))
	return strings.Contains(doubled, sig(other.Refs)) ||
		strings.Contains(sig(other.Refs), sig(lossless.Refs))
}

// streamAgreement scores a profile's hot streams against the lossless
// profile's: the fraction of the lossless top-10 (by heat) it rediscovered,
// recall weighted by heat over all lossless streams, and the fraction of
// its streams that correspond to some lossless stream (a lossy profile
// should not hallucinate regularity the full trace lacks).
func streamAgreement(full, other []ref.Stream) (topRecall, heatRecall, precision float64) {
	matched := func(l ref.Stream) bool {
		for _, s := range other {
			if streamsMatch(l, s) {
				return true
			}
		}
		return false
	}
	// hotds.Analyze emits hottest-first, so full[:10] is the top set.
	top := full[:min(len(full), 10)]
	topHit := 0
	for _, l := range top {
		if matched(l) {
			topHit++
		}
	}
	var heatTotal, heatHit uint64
	for _, l := range full {
		heatTotal += l.Heat
		if matched(l) {
			heatHit += l.Heat
		}
	}
	precHit := 0
	for _, s := range other {
		for _, l := range full {
			if streamsMatch(l, s) {
				precHit++
				break
			}
		}
	}
	if len(top) > 0 {
		topRecall = float64(topHit) / float64(len(top))
	}
	if heatTotal > 0 {
		heatRecall = float64(heatHit) / float64(heatTotal)
	}
	if len(other) > 0 {
		precision = float64(precHit) / float64(len(other))
	}
	return topRecall, heatRecall, precision
}
