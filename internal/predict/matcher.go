package predict

import (
	"fmt"
	"runtime"
	"sync"

	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/ref"
)

// Matcher tracks the matching prefixes of a set of hot data streams with a
// single DFSM (paper §3.1, Figures 7-9) — the "dfsm" predictor. Feed it the
// data references observed at the streams' head pcs; when a stream's head
// completes, Observe returns the remaining stream addresses to prefetch.
type Matcher struct {
	d *dfsm.DFSM
	m *dfsm.Matcher
	tracking
}

// NewMatcher builds the combined prefix-matching DFSM for the given streams.
// headLen is the prefix length that must match before prefetching is
// initiated; the paper finds 2 best (§4.3). Streams too short to have a
// prefetchable tail are ignored.
//
// Per-stream preparation (tail deduplication) is independent across
// streams, so large stream sets are prepared in parallel partitions; each
// worker writes disjoint slots, so the built machine is identical
// regardless of parallelism.
func NewMatcher(streams []ref.Stream, headLen int) (*Matcher, error) {
	if headLen < 1 {
		return nil, fmt.Errorf("predict: headLen must be >= 1, got %d", headLen)
	}
	split := make([]dfsm.Stream, len(streams))
	prep := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			split[i] = dfsm.Split(streams[i].Refs, streams[i].Heat, headLen)
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(streams) >= 32 {
		var wg sync.WaitGroup
		chunk := (len(streams) + workers - 1) / workers
		for lo := 0; lo < len(streams); lo += chunk {
			hi := min(lo+chunk, len(streams))
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				prep(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		prep(0, len(streams))
	}
	d := dfsm.Build(split, headLen)
	return &Matcher{d: d, m: dfsm.NewMatcher(d)}, nil
}

// Observe consumes one data reference. It returns the addresses to prefetch
// (non-nil exactly when a stream's head just completed) and the number of
// comparisons the generated detection code would have executed — the
// matching overhead the paper charges against prefetching gains.
func (m *Matcher) Observe(r ref.Ref) (prefetch []uint64, comparisons int) {
	if m.ledger == nil {
		// Nothing is live after the step, so the untracked path pays no
		// spill for the ledger.
		return m.m.Step(r)
	}
	prefetch, comparisons = m.m.Step(r)
	m.ledger.record(r.Addr, prefetch)
	return prefetch, comparisons
}

// Reset returns the matcher to its start state (nothing matched).
func (m *Matcher) Reset() { m.m.Reset() }

// NumStates returns the number of DFSM states, including the start state.
// The paper observes close to headLen×n+1 states for n streams rather than
// the exponential worst case (§3.1).
func (m *Matcher) NumStates() int { return m.d.NumStates() }

// NumTransitions returns the number of explicit DFSM transitions.
func (m *Matcher) NumTransitions() int { return m.d.NumTransitions() }

// PCs returns the sorted instruction addresses at which detection code must
// be injected: every pc appearing in any stream's head.
func (m *Matcher) PCs() []int { return m.d.PCs() }
