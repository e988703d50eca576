package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	hp "hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/experiment"
	"hotprefetch/internal/workload"
)

// Every input derives from the run's seed through newRand; the system under
// test only ever sees the generated traces and parameters.

// newRand returns the generator for one named input stream of a seed, so
// adding a stream never shifts the values another stream draws.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// programOrder returns the named catalog programs in a seeded order, each
// with a seeded Params.Seed, so every seed runs the workload's whole mix.
func programOrder(r *rand.Rand, names []string) []workload.Params {
	progs := make([]workload.Params, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			panic("perfbench: no catalog program " + n)
		}
		progs[i] = p
	}
	r.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	for i := range progs {
		progs[i].Seed = 1 + r.Int64N(1<<30)
	}
	return progs
}

// scaled shrinks a program's run length by div (1 keeps the paper's size).
func scaled(p workload.Params, div int) workload.Params {
	if div > 1 {
		p.LapsPerBlock = max(1, p.LapsPerBlock/div)
	}
	return p
}

// capture returns the first n refs of program p's reference trace.
func capture(p workload.Params, n int) ([]client.Ref, error) {
	tr, err := experiment.CaptureTrace(p, n)
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", p.Name, err)
	}
	if len(tr) < n {
		return nil, fmt.Errorf("capture %s: program ended after %d refs, want %d", p.Name, len(tr), n)
	}
	out := make([]client.Ref, n)
	for i, r := range tr[:n] {
		out[i] = client.Ref{PC: r.PC, Addr: r.Addr}
	}
	return out, nil
}

// toRefs converts captured refs to the profile's reference type.
func toRefs(in []client.Ref) []hp.Ref {
	out := make([]hp.Ref, len(in))
	for i, r := range in {
		out[i] = hp.Ref{PC: r.PC, Addr: r.Addr}
	}
	return out
}
