package predict_test

import (
	"testing"

	"hotprefetch/internal/predict"
	"hotprefetch/internal/predictortest"
	"hotprefetch/internal/ref"
)

// TestBuiltinsConform runs the shared contract suite over every registered
// predictor, straight from the registry that holds them.
func TestBuiltinsConform(t *testing.T) {
	trace := predictortest.Trace(1, 60)
	streams := predictortest.Streams(t, trace)
	names := predict.Names()
	if len(names) != 3 || names[0] != "dfsm" || names[1] != "markov" || names[2] != "stride" {
		t.Fatalf("Names() = %v, want the sorted builtins [dfsm markov stride]", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			predictortest.Conformance(t, name, streams, trace)
		})
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := predict.New("no-such-predictor", nil, 2); err == nil {
		t.Fatal("unknown predictor name built successfully")
	}
	for _, tc := range []struct {
		name string
		f    predict.Factory
	}{
		{"dfsm", func([]ref.Stream, int) (predict.Predictor, error) { return nil, nil }}, // duplicate
		{"", func([]ref.Stream, int) (predict.Predictor, error) { return nil, nil }},
		{"nil-factory", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", tc.name)
				}
			}()
			predict.Register(tc.name, tc.f)
		}()
	}
}

// TestMatcherBuild covers the DFSM predictor's construction paths: the
// headLen guard, and a stream set large enough to prepare in parallel,
// which must build the same machine as the serial path.
func TestMatcherBuild(t *testing.T) {
	if _, err := predict.NewMatcher(nil, 0); err == nil {
		t.Fatal("NewMatcher accepted headLen 0")
	}
	var streams []ref.Stream
	for s := 0; s < 40; s++ {
		refs := make([]ref.Ref, 12)
		for i := range refs {
			refs[i] = ref.Ref{PC: 100*s + i, Addr: uint64(0x1000*s + 8*i)}
		}
		streams = append(streams, ref.Stream{Refs: refs, Heat: uint64(1000 - s)})
	}
	all, err := predict.NewMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := all.NumStates(), 2*len(streams)+1; got != want {
		t.Fatalf("NumStates = %d, want headLen*n+1 = %d", got, want)
	}
	if all.NumTransitions() == 0 || len(all.PCs()) != 2*len(streams) {
		t.Fatalf("NumTransitions = %d, PCs = %d: want transitions and every head pc",
			all.NumTransitions(), len(all.PCs()))
	}
	pf, _ := all.Observe(streams[7].Refs[0])
	if pf != nil {
		t.Fatalf("prefetched %v after one head reference", pf)
	}
	pf, _ = all.Observe(streams[7].Refs[1])
	if len(pf) != 10 || pf[0] != streams[7].Refs[2].Addr {
		t.Fatalf("completed head prefetched %v, want stream 7's 10-address tail", pf)
	}
}

// TestLedgerWindow pins the FIFO-window semantics the accuracy numbers rest
// on: coalesced re-issues, evictions past the window, hits, and books that
// balance after each step.
func TestLedgerWindow(t *testing.T) {
	refs := func(addrs ...uint64) []ref.Ref {
		out := make([]ref.Ref, len(addrs))
		for i, a := range addrs {
			out[i] = ref.Ref{PC: i, Addr: a}
		}
		return out
	}
	// One hot stream a b c d e: observing a b issues c d e.
	m, err := predict.NewMatcher([]ref.Stream{{Refs: refs(1, 2, 3, 4, 5), Heat: 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAccuracyTracking(2)
	books := func() [4]uint64 {
		i, h, o, d := m.AccuracyBooks()
		if i != h+o+d {
			t.Fatalf("books do not balance: issued=%d hits=%d outstanding=%d dropped=%d", i, h, o, d)
		}
		return [4]uint64{i, h, o, d}
	}
	head := refs(1, 2)
	m.Observe(head[0])
	m.Observe(head[1]) // issues 3 4 5 into a window of 2: 3 is evicted
	if got, want := books(), [4]uint64{3, 0, 2, 1}; got != want {
		t.Fatalf("after first issue books = %v, want %v", got, want)
	}
	m.Observe(ref.Ref{PC: 99, Addr: 4}) // hit
	if got, want := books(), [4]uint64{3, 1, 1, 1}; got != want {
		t.Fatalf("after hit books = %v, want %v", got, want)
	}
	m.Observe(head[0])
	m.Observe(head[1]) // re-issues 3 4 5 through the window: 5, then 3, evicted
	if got, want := books(), [4]uint64{6, 1, 2, 3}; got != want {
		t.Fatalf("after re-issue books = %v, want %v", got, want)
	}

	// With room for the whole tail, a re-issue coalesces with the
	// outstanding copies instead of evicting them.
	m, err = predict.NewMatcher([]ref.Stream{{Refs: refs(1, 2, 3, 4, 5), Heat: 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAccuracyTracking(8)
	for i := 0; i < 2; i++ {
		m.Observe(head[0])
		m.Observe(head[1])
	}
	if got, want := books(), [4]uint64{6, 0, 3, 3}; got != want {
		t.Fatalf("after coalesced re-issue books = %v, want %v", got, want)
	}
}
