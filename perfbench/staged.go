package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	hp "hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/burst"
	"hotprefetch/internal/experiment"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/tracefile"
)

// The staged pass drives one part's inputs through the service-path
// layers one stage at a time, so each call can be timed from outside even
// though the service runs its consumers, analysis pool and HTTP server on
// goroutines of its own:
//
//	0 capture the inputs   workload.build, workload.capture, service.start
//	1 encode               tracefile.encode
//	2 loopback POST        client.publish; plus service.handler and
//	                       tracefile.decode over the recorded bodies
//	3 PublishBatch         sharded.open, sharded.publish (sharded.close
//	                       once stage 5 is done)
//	4 Flush                sharded.flush
//	5 streams              sharded.banked, sharded.hotstreams; then
//	                       burst.check (sampled tenants) and sequitur.add /
//	                       hotds.analyze / sequitur.reset replaying each
//	                       shard's chunks standalone
//	6 compile              dfsm.compile
//	7 Observe              dfsm.observe (open loop at rate when rate > 0)

// stagedSpec describes one part's staged pass.
type stagedSpec struct {
	tenant    hp.ShardedConfig
	batchRefs int     // refs per publish body
	rate      float64 // open-loop observe rate in refs/s (0: back to back)
	// inputs captures the pass's traces, opening workload spans on t. Each
	// group is one tenant's producer streams, one trace per stream.
	inputs func(t *tracer) ([][][]client.Ref, error)
}

// stagedRun is what one staged pass measured.
type stagedRun struct {
	wall     time.Duration
	t        *tracer
	refs     float64 // refs per stage
	rtts     []time.Duration
	client   client.Stats
	bodyB    float64
	stats    hp.Stats // the staged ShardedProfiles' summed stats after Flush
	banked   int
	seqRefs  float64 // refs fed to the standalone prepass profiles
	offered  float64 // refs offered to the standalone burst gate
	collapse float64
	minted   float64
	peakSyms float64
	streams  []float64 // streams per analysis
	states   int
	trans    int
	observed float64
	cmps     float64
	issued   float64
	hits     float64
	late     []float64 // open-loop lateness, ms
}

// stagedGroup is one tenant's inputs and the state its stages build.
type stagedGroup struct {
	key    string
	traces [][]client.Ref
	refs   [][]hp.Ref
	bodies [][][]byte // per stream, one tracefile body per publish
	m      *hp.ConcurrentMatcher
}

// runStaged executes the staged pass with tracing on or off.
func runStaged(spec stagedSpec, on bool, run string) (*stagedRun, error) {
	t := newTracer(on, run)
	sr := &stagedRun{t: t}
	start := time.Now()
	root := t.begin("pass")

	inputs, err := spec.inputs(t)
	if err != nil {
		return nil, err
	}
	groups := make([]*stagedGroup, len(inputs))
	for i, traces := range inputs {
		g := &stagedGroup{key: fmt.Sprintf("staged-%d", i), traces: traces}
		for _, tr := range traces {
			g.refs = append(g.refs, toRefs(tr))
			sr.refs += float64(len(tr))
		}
		groups[i] = g
	}
	var srv, shadow *server
	t.do("service.start", func() {
		if srv, err = startServer(spec.tenant); err != nil {
			return
		}
		shadow, err = startServer(spec.tenant)
	})
	defer srv.stop()
	defer shadow.stop()
	if err != nil {
		return nil, err
	}
	// 1 encode: one tracefile body per publish batch.
	t.do("tracefile.encode", func() {
		buf := make([]ref.Ref, spec.batchRefs)
		for _, g := range groups {
			for _, tr := range g.traces {
				var bs [][]byte
				for lo := 0; lo < len(tr) && err == nil; lo += spec.batchRefs {
					var w bytes.Buffer
					err = tracefile.Write(&w, toInternal(buf, tr[lo:min(lo+spec.batchRefs, len(tr))]))
					bs = append(bs, w.Bytes())
					sr.bodyB += float64(w.Len())
				}
				g.bodies = append(g.bodies, bs)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}

	// 2 loopback POST through the client, then the handler alone over the
	// recorded bodies (no socket), then the decoder alone.
	tt := &timedTransport{base: newTransport()}
	defer tt.base.CloseIdleConnections()
	t.do("client.publish", func() {
		for _, g := range groups {
			for k, tr := range g.traces {
				if err = sr.publish(srv, tt, g.key, uint64(k+1), tr, spec.batchRefs); err != nil {
					return
				}
			}
			// An idle tenant's shard consumers keep polling their rings, so
			// each tenant is evicted once its stage is done.
			srv.svc.Evict(g.key)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	sr.rtts, _, _ = tt.tally()
	handler := shadow.svc.Handler()
	t.do("service.handler", func() {
		for _, g := range groups {
			for k, bs := range g.bodies {
				target := fmt.Sprintf("/ingest?tenant=%s&stream=%d", g.key, k+1)
				for _, b := range bs {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(b)))
					if rec.Code != http.StatusOK && err == nil {
						err = fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.String())
					}
				}
			}
			shadow.svc.Evict(g.key)
		}
	})
	if err != nil {
		return nil, err
	}
	t.do("tracefile.decode", func() {
		buf := make([]ref.Ref, 2048)
		for _, g := range groups {
			for _, bs := range g.bodies {
				for _, b := range bs {
					dec, derr := tracefile.NewDecoder(bytes.NewReader(b))
					for derr == nil {
						_, derr = dec.Next(buf)
					}
					if derr != io.EOF && err == nil {
						err = derr
					}
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	// 3-5 per tenant: PublishBatch into a profile built like the tenant's,
	// Flush, then the stream sets — the live view a service serves and the
	// quiescent cut. Each profile is closed before the next one starts.
	cfg := spec.tenant
	cfg.Prepass.Mode = hp.PrepassOn // what the service resolves Auto to
	streams := make([][]hp.Stream, len(groups))
	for i, g := range groups {
		if streams[i], err = sr.shard(cfg, g.refs); err != nil {
			return nil, err
		}
	}
	// The shard consumer's own work, replayed on this goroutine.
	for _, g := range groups {
		for _, tr := range g.refs {
			sr.sequitur(spec, tr)
		}
	}

	// 6 compile.
	t.do("dfsm.compile", func() {
		for i, g := range groups {
			if err == nil {
				g.m, err = hp.NewConcurrentPredictor("dfsm", streams[i], 2)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}

	// 7 Observe.
	for _, g := range groups {
		sr.states += g.m.NumStates()
		sr.trans += g.m.NumTransitions()
		g.m.EnableAccuracyTracking(0)
	}
	sr.observe(spec, groups)
	for _, g := range groups {
		issued, hits := g.m.AccuracyCounters()
		sr.issued += float64(issued)
		sr.hits += float64(hits)
	}

	t.end(root)
	sr.wall = time.Since(start)
	return sr, nil
}

// shard runs stages 3-5 for one tenant's streams and returns its hot
// streams at quiescence.
func (sr *stagedRun) shard(cfg hp.ShardedConfig, refs [][]hp.Ref) ([]hp.Stream, error) {
	t := sr.t
	var sp *hp.ShardedProfile
	var err error
	t.do("sharded.open", func() { sp, err = hp.NewShardedProfileConfig(cfg) })
	if err != nil {
		return nil, err
	}
	defer t.do("sharded.close", func() { sp.Close() })
	t.do("sharded.publish", func() {
		for k, tr := range refs {
			for lo := 0; lo < len(tr) && err == nil; lo += 2048 {
				err = sp.PublishBatch(uint64(k+1), tr[lo:min(lo+2048, len(tr))])
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("PublishBatch: %w", err)
	}
	t.do("sharded.flush", func() { err = sp.Flush() })
	if err != nil {
		return nil, fmt.Errorf("Flush: %w", err)
	}
	st := sp.Stats()
	sr.stats.Pushed += st.Pushed
	sr.stats.Dropped += st.Dropped
	sr.stats.Sampled += st.Sampled
	sr.stats.BurstShed += st.BurstShed
	sr.stats.CyclesAnalyzed += st.CyclesAnalyzed
	t.do("sharded.banked", func() { sr.banked += len(sp.BankedStreams(0)) })
	var streams []hp.Stream
	t.do("sharded.hotstreams", func() { streams, err = sp.HotStreamsErr(cfg.CycleAnalysis) })
	if err != nil {
		return nil, fmt.Errorf("HotStreams: %w", err)
	}
	return streams, nil
}

// publish sends one trace through a client, a synchronous publish per
// batch, and adds the client's books to the run's.
func (sr *stagedRun) publish(srv *server, tt *timedTransport, tenant string, stream uint64, tr []client.Ref, batch int) error {
	c, err := client.New(client.Config{
		Server: srv.url, Tenant: tenant, Stream: stream,
		BufferRefs: 2 * batch, FlushInterval: -1,
		HTTPClient: &http.Client{Transport: tt, Timeout: time.Minute},
	})
	if err != nil {
		return err
	}
	for lo := 0; lo < len(tr); lo += batch {
		c.AddBatch(tr[lo:min(lo+batch, len(tr))])
		if ferr := c.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if cerr := c.Close(); cerr != nil && err == nil {
		err = cerr
	}
	st := c.Stats()
	sr.client.Captured += st.Captured
	sr.client.Published += st.Published
	sr.client.Dropped += st.Dropped
	sr.client.Publishes += st.Publishes
	sr.client.Errors += st.Errors
	sr.client.Retries += st.Retries
	return err
}

// sequitur replays one stream's admitted refs — what its shard consumes —
// through a standalone prepass profile in the consumer's chunking:
// 2048-ref batches, each fed in chunks of half the remaining budget, with a
// hot-stream analysis and a reset each time the budget fills.
func (sr *stagedRun) sequitur(spec stagedSpec, tr []hp.Ref) {
	t := sr.t
	cfg := spec.tenant.CycleAnalysis
	budget := spec.tenant.MaxGrammarSymbols
	p := hp.NewPrepassProfile(hp.PrepassConfig{})
	analyze := func() {
		sr.peakSyms = max(sr.peakSyms, float64(p.GrammarSize()))
		var n int
		t.do("hotds.analyze", func() { n = len(p.Snapshot().HotStreams(cfg)) })
		sr.streams = append(sr.streams, float64(n))
		sr.collapse += float64(p.Collapsed())
		sr.minted += float64(p.MintedRules())
		t.do("sequitur.reset", p.Reset)
	}
	admitted := tr
	if spec.tenant.Burst.Enabled {
		t.do("burst.check", func() { admitted = burstAdmitted(tr) })
		sr.offered += float64(len(tr))
	}
	sr.seqRefs += float64(len(admitted))
	for lo := 0; lo < len(admitted); lo += 2048 {
		batch := admitted[lo:min(lo+2048, len(admitted))]
		for len(batch) > 0 {
			if p.GrammarSize() >= budget {
				analyze()
			}
			k := min(len(batch), max(1, (budget-p.GrammarSize())/2))
			t.do("sequitur.add", func() { p.AddBatch(batch[:k]) })
			batch = batch[k:]
		}
	}
	analyze()
}

// burstAdmitted returns the refs the scaled burst front end admits from one
// stream: a deterministic 60-ref burst per 1200 checks. Its span is the
// burst layer's own cost, apart from the routing and ring work around the
// gate in PublishBatch.
func burstAdmitted(tr []hp.Ref) []hp.Ref {
	ctl := burst.New(experiment.ScaledSamplingConfig())
	var out []hp.Ref
	for _, r := range tr {
		if in, _ := ctl.Check(); in {
			out = append(out, r)
		}
	}
	return out
}

// observe replays every tenant's traces through its matcher, back to back
// or, with a rate, on the open-loop schedule the phase producer keeps.
func (sr *stagedRun) observe(spec stagedSpec, groups []*stagedGroup) {
	t := sr.t
	const tick = 200 // refs per open-loop step
	start := time.Now()
	var sent float64
	for _, g := range groups {
		for _, tr := range g.refs {
			for lo := 0; lo < len(tr); lo += tick {
				if spec.rate > 0 {
					due := start.Add(time.Duration(sent / spec.rate * 1e9))
					t.do("phase.wait", func() {
						if d := time.Until(due); d > 0 {
							time.Sleep(d)
						}
					})
					sr.late = append(sr.late, float64(time.Since(due))/1e6)
				}
				batch := tr[lo:min(lo+tick, len(tr))]
				t.do("dfsm.observe", func() {
					for _, r := range batch {
						_, c := g.m.Observe(r)
						sr.cmps += float64(c)
					}
				})
				sr.observed += float64(len(batch))
				sent += float64(len(batch))
			}
		}
	}
}

// toInternal copies client refs into dst as wire-format refs.
func toInternal(dst []ref.Ref, src []client.Ref) []ref.Ref {
	dst = dst[:len(src)]
	for i, r := range src {
		dst[i] = ref.Ref{PC: r.PC, Addr: r.Addr}
	}
	return dst
}

// report adds the staged pass's per-layer metrics to res; untraced is the
// wall time of the same pass untraced, for the tracing overhead.
func (sr *stagedRun) report(res *result, untraced time.Duration) {
	t := sr.t
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perRef := func(d time.Duration, n float64) float64 { return ratio(float64(d), n) }

	rtt := inUnits(sr.rtts, time.Millisecond)
	var rttSum time.Duration
	for _, d := range sr.rtts {
		rttSum += d
	}
	res.set("client.publish_ms", "ms", median(rtt))
	res.set("client.publishes", "count", float64(sr.client.Publishes))
	res.set("client.retries", "count", float64(sr.client.Retries))
	res.set("client.dropped_refs", "count", float64(sr.client.Dropped))

	res.set("tracefile.encode_ns_per_ref", "ns/ref", perRef(t.total("tracefile.encode"), sr.refs))
	res.set("tracefile.decode_ns_per_ref", "ns/ref", perRef(t.total("tracefile.decode"), sr.refs))
	res.set("tracefile.bytes_per_ref", "B/ref", ratio(sr.bodyB, sr.refs))

	handler := t.total("service.handler")
	res.set("service.handler_ns_per_ref", "ns/ref", perRef(handler, sr.refs))
	res.set("service.net_ns_per_ref", "ns/ref", perRef(rttSum-handler, sr.refs))

	res.set("sharded.publish_ns_per_ref", "ns/ref", perRef(t.total("sharded.publish"), sr.refs))
	res.set("sharded.flush_ms", "ms", ms(t.total("sharded.flush")))
	res.set("sharded.banked_us", "us", float64(t.total("sharded.banked"))/1e3)
	res.set("sharded.cycles", "count", float64(sr.stats.CyclesAnalyzed))
	res.set("sharded.banked_streams", "count", float64(sr.banked))

	offered := float64(sr.stats.Pushed + sr.stats.Dropped + sr.stats.Sampled + sr.stats.BurstShed)
	res.set("burst.pass_frac", "fraction", ratio(offered-float64(sr.stats.BurstShed), offered))
	if sr.offered > 0 {
		res.set("burst.publish_ns_per_ref", "ns/ref", perRef(t.total("burst.check"), sr.offered))
	}

	res.set("sequitur.add_ns_per_ref", "ns/ref", perRef(t.total("sequitur.add"), sr.seqRefs))
	res.set("sequitur.collapse_frac", "fraction", ratio(sr.collapse, sr.seqRefs))
	res.set("sequitur.grammar_symbols", "count", sr.peakSyms)
	res.set("sequitur.minted_rules", "count", sr.minted)
	res.set("sequitur.reset_us", "us", median(inUnits(t.durations("sequitur.reset"), time.Microsecond)))

	res.set("hotds.analyze_ms", "ms", median(inUnits(t.durations("hotds.analyze"), time.Millisecond)))
	res.set("hotds.streams", "count", median(sr.streams))

	res.set("dfsm.compile_ms", "ms", ms(t.total("dfsm.compile")))
	res.set("dfsm.states", "count", float64(sr.states))
	res.set("dfsm.transitions", "count", float64(sr.trans))
	res.set("dfsm.observe_ns_per_ref", "ns/ref", perRef(t.total("dfsm.observe"), sr.observed))
	res.set("dfsm.cmp_per_ref", "cmp/ref", ratio(sr.cmps, sr.observed))
	res.set("dfsm.issued_per_ref", "prefetch/ref", ratio(sr.issued, sr.observed))
	res.set("dfsm.accuracy", "fraction", ratio(sr.hits, sr.issued))

	if len(sr.late) > 0 {
		res.set("phase.gen_late_p50_ms", "ms", percentile(sr.late, 50))
		res.set("phase.gen_late_max_ms", "ms", percentile(sr.late, 100))
	}
	recordTrace(res, t, sr.wall, untraced)
}

// recordTrace checks that the layer spans account for all but a tenth of
// the traced pass and records the pass's sums for the run's workload.* and
// trace.* metrics.
func recordTrace(res *result, t *tracer, traced, untraced time.Duration) {
	u := unattributed(t.spans)
	res.check(u <= 0.10, "trace: unattributed share %.3f above 0.10", u)
	attributed, root := attribution(t.spans)
	res.layers = layerTotals{
		build: t.total("workload.build"), capture: t.total("workload.capture"), captured: t.captured,
		attributed: attributed, root: root, traced: traced, untraced: untraced,
	}
}
