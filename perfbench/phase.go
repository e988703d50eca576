package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	hp "hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/workload"
)

// The phase part measures profile-to-prediction latency. One open-loop
// producer plays phases at a fixed reference rate. Each phase is a segment
// of a workload program (seeded program, offset and input) relocated to an
// address range of its own, so no earlier phase's streams can predict it.
// The producer publishes every reference through the client, as the
// instrumented program would, and feeds it to a ConcurrentMatcher; a poller
// installs each changed GET /hotstreams answer with SwapNamed. A phase is
// detected when Observe on its references first returns a prefetch into its
// own address range.

const (
	phaseTenant = "phase"
	phaseTick   = 200 // refs per open-loop step: 1 ms at 200k refs/s
	phasePoll   = 2 * time.Millisecond
	phaseSpan   = 1 << 40 // bytes of address space reserved per phase
	// Each episode plays episodePhases phases to a fresh tenant and matcher.
	// Banked streams never age, so detection falls as an episode gets longer;
	// more phases per run come from more episodes of the same length.
	episodePhases = 100
	phaseBudget   = 4096 // grammar symbols per shard: about four cycles per phase
)

// phaseInputs holds every phase's relocated references back to back.
type phaseInputs struct {
	refs   []client.Ref
	length int      // refs per phase
	base   []uint64 // first address of each phase's range
}

func phaseTenantConfig() hp.ShardedConfig {
	return hp.ShardedConfig{
		Shards:            1,
		Policy:            hp.Block,
		MaxGrammarSymbols: phaseBudget,
		AnalysisWorkers:   1,
		CycleAnalysis:     paperAnalysis(),
	}
}

// episodes is how many episodes of episodePhases phases fill the phase
// part's share of the measured time, at least one.
func episodes(o options) int {
	return max(1, int(phaseShare*o.seconds*o.size.phaseRate)/o.size.phaseRefs/episodePhases)
}

// makePhaseInputs captures each workload program once and cuts n seeded,
// relocated phases from the captures.
func makePhaseInputs(o options, n int, t *tracer) (*phaseInputs, error) {
	r := newRand(o.seed, "phase")
	progs := programOrder(r, o.programs)
	L := o.size.phaseRefs
	src := make([][]client.Ref, len(progs))
	for i, p := range progs {
		var err error
		t.do("workload.build", func() { workload.Build(p) })
		t.do("workload.capture", func() { src[i], err = capture(p, o.size.maxOffset+L) })
		if err != nil {
			return nil, err
		}
		t.captured += float64(o.size.maxOffset + L)
	}
	in := &phaseInputs{length: L, refs: make([]client.Ref, 0, n*L)}
	var order []int
	for k := 0; k < n; k++ {
		if k%len(progs) == 0 {
			order = r.Perm(len(progs))
		}
		seg := src[order[k%len(progs)]]
		off := r.IntN(o.size.maxOffset + 1)
		base := uint64(k+1)*phaseSpan + uint64(r.IntN(1<<20))<<6
		in.base = append(in.base, base)
		for _, ref := range seg[off : off+L] {
			in.refs = append(in.refs, client.Ref{PC: ref.PC, Addr: base + ref.Addr})
		}
	}
	return in, nil
}

// measurePhase plays the phase part's episodes, the first on srv and each
// later one on a service of its own, and adds its checks and metrics to
// res. The phase tenant is registered as its episode starts: an idle
// shard's consumer keeps polling its ring, so a tenant registered earlier
// would take a core from the parts before.
func measurePhase(o options, res *result, srv *server, in *phaseInputs) error {
	ne := len(in.base) / episodePhases
	var tot phaseTotals
	for e := 0; e < ne; e++ {
		s := srv
		if e > 0 {
			var err error
			if s, err = startServer(phaseTenantConfig()); err != nil {
				return err
			}
		}
		_, err := s.svc.Tenant(phaseTenant)
		if err == nil {
			err = phaseEpisode(o, res, s, in, e*episodePhases, &tot)
		}
		if e > 0 {
			s.stop()
		}
		if err != nil {
			return err
		}
	}
	_, p90ok := tailPercentile(len(tot.p2p), 90)
	res.check(p90ok, "phase: %d phases: fewer than %d beyond p90", len(tot.p2p), minTail)

	res.set("p2p_p50_ms", "ms", percentile(tot.p2p, 50))
	res.set("p2p_p90_ms", "ms", percentile(tot.p2p, 90))
	res.set("observe_ns_per_ref", "ns/ref", float64(tot.observeTime)/tot.observed)
	res.set("prefetch_accuracy", "fraction", ratio(tot.hits, tot.issued))
	// The share of phases detected, and the coverage that follows it, are
	// logged, not reported: detection within an episode is bimodal, so they
	// spread across seeds by more than the benchmark's bounds allow.
	fmt.Fprintf(os.Stderr, "perfbench: phase: open loop at %.0f refs/s, %d episodes of %d phases of %d refs (%.0f ms); "+
		"%d of %d phases detected, coverage %.4f; generator lateness p50 %.3f ms, max %.3f ms; %d polls, %d swaps, compile p50 %.2f ms\n",
		o.size.phaseRate, ne, episodePhases, in.length, float64(in.length)/o.size.phaseRate*1e3, tot.detected, len(tot.p2p), tot.hits/tot.observed,
		percentile(tot.late, 50), percentile(tot.late, 100), tot.polls, tot.swaps, median(inUnits(tot.compile, time.Millisecond)))
	return nil
}

// phaseTotals pools what the episodes of a run measured.
type phaseTotals struct {
	p2p, late              []float64 // ms
	detected               int
	observeTime            time.Duration
	observed, issued, hits float64
	polls, swaps           uint64
	compile                []time.Duration
}

// phaseEpisode plays episodePhases phases from phase first on to srv's
// tenant, with a fresh matcher, client and poller, adds its samples to tot
// and its operations and checks to res.
func phaseEpisode(o options, res *result, srv *server, in *phaseInputs, first int, tot *phaseTotals) error {
	m, err := hp.NewConcurrentPredictor("dfsm", nil, 2)
	if err != nil {
		return err
	}
	m.EnableAccuracyTracking(0)

	// A publish to the phase tenant costs 3.5-4 ms almost whatever its
	// size, so the client buffers 20 ms of references (4096 at the
	// benchmark's rate): with 1024-ref buffers flushed every 5 ms the one
	// publisher was over 90% busy and dropped references whenever the host
	// slowed down.
	tt := &timedTransport{base: newTransport()}
	defer tt.base.CloseIdleConnections()
	c, err := client.New(client.Config{
		Server: srv.url, Tenant: phaseTenant, Stream: 1,
		BufferRefs: 4096, FlushInterval: 20 * time.Millisecond, MaxPending: 64,
		HTTPClient: &http.Client{Transport: tt, Timeout: time.Minute},
	})
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	var pl poller
	go func() {
		defer pollWG.Done()
		pl.run(srv.url, m, stop)
	}()

	rate := o.size.phaseRate
	phaseDur := time.Duration(float64(in.length) / rate * 1e9)
	start := time.Now()
	for j := 0; j < episodePhases; j++ {
		k := first + j
		lo, hi := in.base[k], in.base[k]+phaseSpan
		phaseDue := start.Add(time.Duration(j) * phaseDur)
		var seen time.Time
		for i := k * in.length; i < (k+1)*in.length; i += phaseTick {
			due := start.Add(time.Duration(float64(i-first*in.length) / rate * 1e9))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			tot.late = append(tot.late, float64(time.Since(due))/1e6)
			batch := in.refs[i:min(i+phaseTick, (k+1)*in.length)]
			c.AddBatch(batch)
			t0 := time.Now()
			for _, r := range batch {
				pf, _ := m.Observe(hp.Ref{PC: r.PC, Addr: r.Addr})
				if seen.IsZero() && len(pf) > 0 && inRange(pf, lo, hi) {
					seen = time.Now()
				}
			}
			tot.observeTime += time.Since(t0)
			tot.observed += float64(len(batch))
		}
		if seen.IsZero() {
			// Undetected: the phase counts as its full length, as it ran.
			tot.p2p = append(tot.p2p, float64(time.Since(phaseDue))/1e6)
		} else {
			tot.detected++
			tot.p2p = append(tot.p2p, float64(seen.Sub(phaseDue))/1e6)
		}
	}
	close(stop)
	pollWG.Wait()
	closeErr := c.Close()
	tenant, _ := srv.svc.Lookup(phaseTenant)
	if err := tenant.Profile().Flush(); err != nil {
		return fmt.Errorf("tenant Flush: %w", err)
	}

	cs := c.Stats()
	_, attempts, failed := tt.tally()
	res.Attempted += attempts + pl.polls
	res.Failed += failed + pl.failed + cs.Errors
	if cs.Dropped > 0 {
		res.Failed++
	}
	res.check(closeErr == nil, "client Close: %v", closeErr)
	res.check(cs.Captured == cs.Published && cs.Dropped == 0 && cs.Errors == 0,
		"client: captured %d published %d dropped %d errors %d", cs.Captured, cs.Published, cs.Dropped, cs.Errors)
	res.check(failed == 0, "%d failed publishes", failed)
	res.check(pl.failed == 0, "%d of %d polls failed", pl.failed, pl.polls)
	res.check(pl.swaps > 0, "no stream set was ever installed")
	checkTenant(res, srv.svc, phaseTenant)

	issued, hits := m.AccuracyCounters()
	tot.issued += float64(issued)
	tot.hits += float64(hits)
	tot.polls += pl.polls
	tot.swaps += pl.swaps
	tot.compile = append(tot.compile, pl.compile...)
	return nil
}

// inRange reports whether any prefetch address lies in [lo, hi).
func inRange(pf []uint64, lo, hi uint64) bool {
	for _, a := range pf {
		if a >= lo && a < hi {
			return true
		}
	}
	return false
}

// poller retrains a matcher from the service's banked streams.
type poller struct {
	polls, failed, swaps uint64
	compile              []time.Duration
}

type hotStreamsReply struct {
	Streams []struct {
		Refs []hp.Ref `json:"refs"`
		Heat uint64   `json:"heat"`
	} `json:"streams"`
}

func (p *poller) run(base string, m *hp.ConcurrentMatcher, stop <-chan struct{}) {
	hc := &http.Client{Transport: newTransport(), Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	url := base + "/hotstreams?tenant=" + phaseTenant + "&top=" + strconv.Itoa(paperAnalysis().MaxStreams)
	tick := time.NewTicker(phasePoll)
	defer tick.Stop()
	var last uint64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p.polls++
		streams, sum, err := fetchStreams(hc, url)
		if err != nil {
			p.failed++
			continue
		}
		if sum == last {
			continue
		}

		last = sum
		t0 := time.Now()
		if err := m.SwapNamed("dfsm", streams, 2); err != nil {
			p.failed++
			continue
		}
		p.compile = append(p.compile, time.Since(t0))
		p.swaps++
	}
}

// fetchStreams GETs the banked streams and returns them with a content
// hash, so an unchanged answer is not recompiled.
func fetchStreams(hc *http.Client, url string) ([]hp.Stream, uint64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("hotstreams: %s", resp.Status)
	}
	var reply hotStreamsReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, 0, fmt.Errorf("hotstreams: %w", err)
	}
	h := fnv.New64a()
	streams := make([]hp.Stream, len(reply.Streams))
	var buf [16]byte
	for i, s := range reply.Streams {
		streams[i] = hp.Stream{Refs: s.Refs, Heat: s.Heat}
		for _, r := range s.Refs {
			for j := 0; j < 8; j++ {
				buf[j] = byte(uint64(r.PC) >> (8 * j))
				buf[8+j] = byte(r.Addr >> (8 * j))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return streams, h.Sum64() | 1, nil
}

// tracePhase runs the staged pass over the first phases, with the Observe
// stage on the phase part's open-loop schedule.
func tracePhase(o options) (*result, error) {
	res := newResult()
	spec := stagedSpec{
		tenant:    phaseTenantConfig(),
		batchRefs: 1024,
		rate:      o.size.phaseRate,
		inputs: func(t *tracer) ([][][]client.Ref, error) {
			in, err := makePhaseInputs(o, o.size.stagedPhase, t)
			if err != nil {
				return nil, err
			}
			return [][][]client.Ref{{in.refs}}, nil
		},
	}
	return staged(o, spec, res)
}
