package hotprefetch_test

import (
	"fmt"

	"hotprefetch"
)

// traversal fabricates the (pc, addr) sequence of one structure walk.
func traversal(pcBase int, addrBase uint64, n int) []hotprefetch.Ref {
	refs := make([]hotprefetch.Ref, n)
	for i := range refs {
		refs[i] = hotprefetch.Ref{PC: pcBase + i, Addr: addrBase + uint64(i)*64}
	}
	return refs
}

// ExampleProfile shows the paper's §2 pipeline: append data references
// online, then extract hot data streams.
func ExampleProfile() {
	profile := hotprefetch.NewProfile()
	walk := traversal(100, 0x8000, 12)
	for lap := 0; lap < 30; lap++ {
		profile.AddBatch(walk)
		profile.Add(hotprefetch.Ref{PC: 999, Addr: uint64(0xF0000 + lap*4096)}) // noise
	}

	streams := profile.HotStreams(hotprefetch.AnalysisConfig{
		MinLen: 10, MaxLen: 50, MinUnique: 10, MinCoverage: 0.01,
	})
	s := streams[0]
	fmt.Printf("streams: %d\n", len(streams))
	fmt.Printf("hottest: %d refs, %.0f%% of trace\n", len(s.Refs), 100*s.Coverage(profile.Len()))
	// Output:
	// streams: 1
	// hottest: 12 refs, 92% of trace
}

// ExampleMatcher shows the paper's §3 engine: one DFSM matches all stream
// prefixes; completing a head yields the remaining addresses to prefetch.
func ExampleMatcher() {
	profile := hotprefetch.NewProfile()
	walk := traversal(100, 0x8000, 12)
	for lap := 0; lap < 30; lap++ {
		profile.AddBatch(walk)
		profile.Add(hotprefetch.Ref{PC: 999, Addr: uint64(0xF0000 + lap*4096)}) // noise
	}
	streams := profile.HotStreams(hotprefetch.AnalysisConfig{
		MinLen: 10, MaxLen: 50, MinCoverage: 0.01,
	})

	matcher, err := hotprefetch.NewMatcher(streams, 2 /* headLen, §4.3 */)
	if err != nil {
		panic(err)
	}
	for i, r := range walk {
		if prefetch, _ := matcher.Observe(r); prefetch != nil {
			fmt.Printf("matched after %d refs; prefetch %d addresses, first 0x%x\n",
				i+1, len(prefetch), prefetch[0])
			break
		}
	}
	// Output:
	// matched after 2 refs; prefetch 10 addresses, first 0x8080
}
