// Package predict is the prefetch-predictor core: the Predictor contract
// over ref.Ref and ref.Stream, the FIFO-window accuracy ledger every
// implementation shares, and the process-wide registry holding the built-in
// predictors — the paper's DFSM prefix matcher (§3.1) as "dfsm", and the
// correlation and stride families of §5.1 as "markov" and "stride".
//
// The root package re-exports the contract as aliases and the registry as
// one-line wrappers, so services and the experiments build predictors
// through the same registry.
package predict

import (
	"fmt"
	"sort"
	"sync"

	"hotprefetch/internal/markov"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/stride"
)

// Predictor is one point in the prefetch-predictor design space: it consumes
// the reference stream one observation at a time and returns the addresses
// worth prefetching plus the detection cost the observation paid (the
// DFSM's comparison count, a Markov table's probe count, a stride table's
// CAM occupancy — always >= 1).
//
// Training happens at construction (see New): a predictor is built over a
// hot-stream set and is immutable apart from its rolling match state, which
// Reset returns to the start. Built over an empty stream set, every
// implementation must behave as pass-through — no prefetch ever, one
// comparison per observation — because that is the deoptimized state the
// Supervisor swaps in (§5).
//
// Implementations are not safe for concurrent use (the root package's
// ConcurrentMatcher wraps them), returned prefetch slices alias internal
// state and are valid only until the next Observe, and accuracy accounting
// uses the one FIFO-window ledger of this package, so A/B comparisons across
// predictors measure the same thing. EnableAccuracyTracking is idempotent:
// once tracking is on, a further call keeps the existing books.
type Predictor interface {
	Observe(r ref.Ref) (prefetch []uint64, comparisons int)
	Reset()
	EnableAccuracyTracking(window int)
	AccuracyCounters() (issued, hits uint64)
}

// AccuracyBooks is optionally implemented by predictors whose accuracy
// tracker exposes its full ledger. The books balance exactly:
// issued == hits + outstanding + dropped (dropped covers FIFO evictions and
// issues coalesced with an already-outstanding address). The conformance
// and fuzz suites assert this invariant; all built-in predictors implement
// it.
type AccuracyBooks interface {
	AccuracyBooks() (issued, hits, outstanding, dropped uint64)
}

// Factory builds a trained predictor over a hot-stream set. headLen is the
// stream head length in references (see NewMatcher); implementations that
// have no prefix/suffix split are free to ignore it. An empty or nil stream
// set must yield a pass-through predictor, not an error.
type Factory func(streams []ref.Stream, headLen int) (Predictor, error)

var (
	mu       sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a named predictor implementation to the registry.
// Registering a name twice panics: the registry is process-global and a
// silent override would re-route every service that selected the name.
// Tests registering throwaway predictors should use distinct names.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("predict: Register needs a name and a factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("predict: predictor %q already registered", name))
	}
	registry[name] = f
}

// New builds a trained instance of the named predictor.
func New(name string, streams []ref.Stream, headLen int) (Predictor, error) {
	mu.RLock()
	f := registry[name]
	mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("predict: unknown predictor %q (registered: %v)", name, Names())
	}
	return f(streams, headLen)
}

// Names returns the registered predictor names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("dfsm", func(streams []ref.Stream, headLen int) (Predictor, error) {
		return NewMatcher(streams, headLen)
	})
	Register("markov", func(streams []ref.Stream, headLen int) (Predictor, error) {
		p, err := markov.New(streams, markov.Config{})
		if err != nil {
			return nil, err
		}
		return &tracked{core: p}, nil
	})
	Register("stride", func(streams []ref.Stream, headLen int) (Predictor, error) {
		p, err := stride.New(streams, stride.Config{})
		if err != nil {
			return nil, err
		}
		return &tracked{core: p}, nil
	})
}

// tracked adapts a predictor core that has no ledger of its own (markov,
// stride) to the Predictor contract by recording each observation in the
// shared ledger.
type tracked struct {
	core interface {
		Observe(ref.Ref) ([]uint64, int)
		Reset()
	}
	tracking
}

func (t *tracked) Observe(r ref.Ref) (prefetch []uint64, comparisons int) {
	if t.ledger == nil {
		return t.core.Observe(r)
	}
	prefetch, comparisons = t.core.Observe(r)
	t.ledger.record(r.Addr, prefetch)
	return prefetch, comparisons
}

func (t *tracked) Reset() { t.core.Reset() }
