package hotprefetch

import (
	"slices"

	"hotprefetch/internal/predict"
	"hotprefetch/internal/ref"
)

// Ref is a single data reference: the program counter of a load or store
// and the address it touched (paper §2.1).
type Ref = ref.Ref

// Stream is a hot data stream: a reference sequence that frequently repeats
// in the same order, with its regularity magnitude Heat = length ×
// frequency (paper §2.3). Coverage(traceLen) is the fraction of a trace of
// traceLen references the stream accounts for.
type Stream = ref.Stream

// Predictor is one point in the prefetch-predictor design space: Observe
// consumes one reference and returns the addresses worth prefetching plus
// the detection cost it paid. Training happens at construction (see
// NewPredictor); an empty stream set yields the pass-through predictor the
// Supervisor swaps in when it deoptimizes (§5). Implementations are not
// safe for concurrent use (wrap them in ConcurrentMatcher) and all share
// one FIFO-window accuracy ledger; see internal/predict for the full
// contract.
type Predictor = predict.Predictor

// AccuracyBooks is optionally implemented by predictors whose accuracy
// tracker exposes its full ledger; the books balance exactly:
// issued == hits + outstanding + dropped.
type AccuracyBooks = predict.AccuracyBooks

// PredictorFactory builds a trained predictor over a hot-stream set.
// headLen is the stream head length in references (see NewMatcher). An
// empty or nil stream set must yield a pass-through predictor, not an
// error.
type PredictorFactory = predict.Factory

// Matcher is the paper's DFSM prefix matcher (§3.1, Figures 7-9), the
// "dfsm" predictor: it tracks the matching prefixes of a set of hot data
// streams with a single DFSM and, when a stream's head completes, returns
// the remaining stream addresses to prefetch.
type Matcher = predict.Matcher

// NewMatcher builds the combined prefix-matching DFSM for the given streams.
// headLen is the prefix length that must match before prefetching is
// initiated; the paper finds 2 best (§4.3). Streams too short to have a
// prefetchable tail are ignored.
func NewMatcher(streams []Stream, headLen int) (*Matcher, error) {
	return predict.NewMatcher(streams, headLen)
}

// RegisterPredictor adds a named predictor implementation to the
// process-global registry; registering a name twice panics.
func RegisterPredictor(name string, f PredictorFactory) { predict.Register(name, f) }

// NewPredictor builds a trained instance of the named predictor.
func NewPredictor(name string, streams []Stream, headLen int) (Predictor, error) {
	return predict.New(name, streams, headLen)
}

// PredictorNames returns the registered predictor names, sorted.
func PredictorNames() []string { return predict.Names() }

func predictorRegistered(name string) bool { return slices.Contains(predict.Names(), name) }

// DefaultPredictor is the registry name of the paper's DFSM prefix matcher,
// the default everywhere a predictor is selectable.
const DefaultPredictor = "dfsm"
