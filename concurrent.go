package hotprefetch

import (
	"sort"
	"sync"
	"sync/atomic"

	"hotprefetch/internal/obs"
)

// ConcurrentMatcher is a Predictor safe for use by multiple goroutines, with
// hot swapping of both the matched stream set and the predictor
// implementation behind it. Historically it wrapped only the DFSM matcher —
// the name stuck — but any registered Predictor (see RegisterPredictor) can
// be published through it; NewConcurrentMatcher installs the default DFSM.
//
// The current predictor is published through an atomic pointer: Swap builds
// the replacement entirely off to the side and installs it with one short
// lock-protected store, so Observe never waits on a retraining build and
// never sees a torn or half-compiled table — the paper's §5
// de-optimize/re-optimize transition without a stop-the-world on the
// detection path. The step mutex guards only the predictor's rolling match
// state and the observation count; the common case is a short critical
// section around an array-indexed Step and one plain increment.
//
// All callers share one match state — observations interleave into a single
// logical reference stream, exactly as if one goroutine called Observe with
// the merged order. To match per-thread streams independently, give each
// thread its own Predictor instead.
type ConcurrentMatcher struct {
	mu       sync.Mutex // serializes stepping of the current predictor
	cur      atomic.Pointer[predEntry]
	observed uint64 // guarded by mu, bumped in the step's critical section
	swaps    atomic.Uint64

	// buildMu serializes Swap against concurrent Swap calls: two racing
	// retrains used to publish in either order (double-counting swaps while
	// leaving an arbitrary winner installed); the build mutex — deliberately
	// not the step lock, so Observe still never waits on a build — makes
	// publication last-writer-deterministic: each Swap's build and store are
	// atomic with respect to other Swaps.
	buildMu sync.Mutex

	// Accuracy accounting (see EnableAccuracyTracking): the live counters
	// belong to the current predictor and are read under mu; counters of
	// replaced instances accumulate per predictor name in book so totals
	// survive swaps and A/B windows attribute exactly to the
	// implementation that earned them.
	trackWindow atomic.Int64
	book        map[string]*predictorBook // guarded by mu
	issuedBase  atomic.Uint64
	hitBase     atomic.Uint64

	// obs, when set (see SetObserver), receives a KindMatcherSwap event for
	// each published retrain. AttachMatcher sets it so swaps land in the
	// same trace as the grammar cycles that triggered them.
	obs atomic.Pointer[obs.Observer]
}

// predEntry is one published predictor: the implementation, its registry
// name, and the size of the stream set it was trained on (the DFSM exposes
// real state counts; the stream count is the stats fallback for
// implementations that do not).
type predEntry struct {
	name    string
	p       Predictor
	streams int
}

// predictorBook accumulates one implementation's retired accuracy counters
// across swaps.
type predictorBook struct {
	issued, hits uint64
	swaps        uint64
}

// PredictorAccuracy is one predictor's cumulative accuracy ledger across
// every instance of it this matcher has published; see AccuracyByPredictor.
type PredictorAccuracy struct {
	Name   string `json:"name"`
	Issued uint64 `json:"issued"`
	Hits   uint64 `json:"hits"`
	Swaps  uint64 `json:"swaps"` // times an instance of this predictor was published
}

// SetObserver points the matcher's event emission at o (nil detaches).
// ShardedProfile.AttachMatcher calls this with the profile's Observer.
func (c *ConcurrentMatcher) SetObserver(o *obs.Observer) {
	c.obs.Store(o)
}

// NewConcurrentMatcher builds the prefix-matching DFSM for streams (see
// NewMatcher) and wraps it for concurrent use. An empty (or nil) stream set
// is valid and yields a pass-through machine that matches nothing — the
// deoptimized state of the paper's runtime, where detection code costs one
// failed comparison and no prefetch ever fires.
func NewConcurrentMatcher(streams []Stream, headLen int) (*ConcurrentMatcher, error) {
	return NewConcurrentPredictor(DefaultPredictor, streams, headLen)
}

// NewConcurrentPredictor builds a trained instance of the named registered
// predictor (see RegisterPredictor) and wraps it for concurrent use. The
// empty-stream-set contract matches NewConcurrentMatcher: a pass-through
// predictor that never prefetches.
func NewConcurrentPredictor(name string, streams []Stream, headLen int) (*ConcurrentMatcher, error) {
	p, err := NewPredictor(name, streams, headLen)
	if err != nil {
		return nil, err
	}
	c := &ConcurrentMatcher{book: make(map[string]*predictorBook)}
	c.cur.Store(&predEntry{name: name, p: p, streams: len(streams)})
	c.bookFor(name).swaps++
	return c, nil
}

// bookFor returns (creating if needed) the accumulated ledger for name.
// Callers hold mu, except during construction.
func (c *ConcurrentMatcher) bookFor(name string) *predictorBook {
	b := c.book[name]
	if b == nil {
		b = &predictorBook{}
		c.book[name] = b
	}
	return b
}

// Observe consumes one data reference; see Predictor. The returned prefetch
// slice aliases the predictor's state tables and must not be mutated.
//
// Observe loads the published predictor under the step lock: a concurrent
// Swap either lands before (this reference drives the new predictor from its
// start state) or after (it drove the old one, whose tables remain valid),
// but never mid-step.
func (c *ConcurrentMatcher) Observe(r Ref) (prefetch []uint64, comparisons int) {
	c.mu.Lock()
	prefetch, comparisons = c.cur.Load().p.Observe(r)
	c.observed++
	c.mu.Unlock()
	return prefetch, comparisons
}

// Swap retrains the current predictor implementation on a new stream set;
// see SwapNamed. Swapping in an empty stream set installs the pass-through
// instance (deoptimization).
func (c *ConcurrentMatcher) Swap(streams []Stream, headLen int) error {
	return c.SwapNamed(c.cur.Load().name, streams, headLen)
}

// SwapNamed retrains the matcher, possibly changing the predictor
// implementation: it builds the named predictor for the new stream set —
// without holding the step lock, so Observe proceeds against the old
// instance throughout the build — and publishes it positioned at its start
// state. On error the current predictor is left in place. Concurrent swaps
// are serialized by a build mutex, so each retrain's build and publication
// are atomic with respect to other retrains and the swap count is exact.
func (c *ConcurrentMatcher) SwapNamed(name string, streams []Stream, headLen int) error {
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	p, err := NewPredictor(name, streams, headLen)
	if err != nil {
		return err
	}
	if w := c.trackWindow.Load(); w != 0 {
		p.EnableAccuracyTracking(int(w))
	}
	// Publish under the step lock: the old predictor's accuracy counters
	// are folded into its book in the same critical section, so no Observe
	// can bump them between the read and the store.
	c.mu.Lock()
	old := c.cur.Load()
	issued, hits := old.p.AccuracyCounters()
	b := c.bookFor(old.name)
	b.issued += issued
	b.hits += hits
	c.bookFor(name).swaps++
	c.issuedBase.Add(issued)
	c.hitBase.Add(hits)
	c.cur.Store(&predEntry{name: name, p: p, streams: len(streams)})
	c.mu.Unlock()
	c.swaps.Add(1)
	if o := c.obs.Load(); o != nil {
		// Value carries the new instance's stream count: zero marks a
		// deoptimizing swap to the pass-through predictor.
		o.Emit(obs.KindMatcherSwap, -1, uint64(len(streams)))
	}
	return nil
}

// Predictor returns the registry name of the currently published predictor
// implementation.
func (c *ConcurrentMatcher) Predictor() string { return c.cur.Load().name }

// EnableAccuracyTracking turns on prefetch accuracy accounting on the
// current predictor and every instance installed by future Swaps; see
// Matcher.EnableAccuracyTracking. window <= 0 means 4096. Once tracking is
// on, a further call changes nothing: the books and the window stay, so
// AccuracyCounters never goes backwards.
func (c *ConcurrentMatcher) EnableAccuracyTracking(window int) {
	if window <= 0 {
		window = 4096
	}
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if !c.trackWindow.CompareAndSwap(0, int64(window)) {
		return
	}
	c.mu.Lock()
	c.cur.Load().p.EnableAccuracyTracking(window)
	c.mu.Unlock()
}

// AccuracyCounters returns the cumulative prefetch addresses issued and hit
// across all predictors this matcher has published (swaps included). Both
// are zero until EnableAccuracyTracking.
func (c *ConcurrentMatcher) AccuracyCounters() (issued, hits uint64) {
	c.mu.Lock()
	issued, hits = c.cur.Load().p.AccuracyCounters()
	c.mu.Unlock()
	return issued + c.issuedBase.Load(), hits + c.hitBase.Load()
}

// AccuracyByPredictor splits AccuracyCounters by predictor implementation:
// each entry accumulates the issued/hit counters of every instance of that
// name published so far, the live one included. Entries are sorted by name.
// Reads fold under the step lock, so at any instant the per-predictor
// counters sum exactly to AccuracyCounters — A/B accuracy windows cannot
// cross-contaminate or lose observations at a swap boundary.
func (c *ConcurrentMatcher) AccuracyByPredictor() []PredictorAccuracy {
	c.mu.Lock()
	out := make([]PredictorAccuracy, 0, len(c.book))
	cur := c.cur.Load()
	liveIssued, liveHits := cur.p.AccuracyCounters()
	for name, b := range c.book {
		pa := PredictorAccuracy{Name: name, Issued: b.issued, Hits: b.hits, Swaps: b.swaps}
		if name == cur.name {
			pa.Issued += liveIssued
			pa.Hits += liveHits
		}
		out = append(out, pa)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Observations returns the number of references observed so far, for service
// stats (see ShardedProfile.AttachMatcher).
func (c *ConcurrentMatcher) Observations() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observed
}

// Swaps returns the number of Swap retrainings published so far.
func (c *ConcurrentMatcher) Swaps() uint64 { return c.swaps.Load() }

// Reset returns the matcher to its start state (nothing matched).
func (c *ConcurrentMatcher) Reset() {
	c.mu.Lock()
	c.cur.Load().p.Reset()
	c.mu.Unlock()
}

// NumStates returns the number of DFSM states, including the start state.
// For predictor implementations without a state machine it approximates:
// 1 (pass-through) when trained on no streams, stream count + 1 otherwise —
// preserving the "NumStates() > 1 means trained" test every caller uses.
func (c *ConcurrentMatcher) NumStates() int {
	e := c.cur.Load()
	if m, ok := e.p.(*Matcher); ok {
		return m.NumStates()
	}
	if e.streams == 0 {
		return 1
	}
	return e.streams + 1
}

// NumTransitions returns the number of explicit DFSM transitions (zero for
// non-DFSM predictors).
func (c *ConcurrentMatcher) NumTransitions() int {
	if m, ok := c.cur.Load().p.(*Matcher); ok {
		return m.NumTransitions()
	}
	return 0
}

// PCs returns the sorted instruction addresses needing detection code (nil
// for non-DFSM predictors, which observe every reference).
func (c *ConcurrentMatcher) PCs() []int {
	if m, ok := c.cur.Load().p.(*Matcher); ok {
		return m.PCs()
	}
	return nil
}
