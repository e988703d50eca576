package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	hp "hotprefetch"
	"hotprefetch/internal/experiment"
)

// server is a Service mounted on a loopback TCP listener.
type server struct {
	svc  *hp.Service
	http *http.Server
	url  string
	done chan error
}

// startServer starts a service with the given tenant template on
// 127.0.0.1 and an ephemeral port.
func startServer(tenant hp.ShardedConfig) (*server, error) {
	svc, err := hp.NewService(hp.ServiceConfig{Tenant: tenant, SnapshotInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, and closes the service.
func (s *server) stop() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout here leaves Close below to end the tenants
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.svc.Close()
}

// newTransport returns a keep-alive transport for a handful of loopback
// connections.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
}

// timedTransport records every round trip's duration and counts non-200
// responses and transport errors: the benchmark's view of publish latency.
type timedTransport struct {
	base *http.Transport

	mu      sync.Mutex
	rtts    []time.Duration
	non200  uint64
	errors  uint64
	attempt uint64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		// Read the body inside the timed window, so the sample covers the
		// whole exchange the client waits for.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		err = rerr
	}
	d := time.Since(start)
	t.mu.Lock()
	t.attempt++
	switch {
	case err != nil:
		t.errors++
	case resp.StatusCode != http.StatusOK:
		t.non200++
	default:
		t.rtts = append(t.rtts, d)
	}
	t.mu.Unlock()
	return resp, err
}

// tally returns the recorded samples and counts.
func (t *timedTransport) tally() (rtts []time.Duration, attempts, failed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.rtts...), t.attempt, t.non200 + t.errors
}

// checkTenant verifies the service's accounting identities for one tenant
// after its profile was flushed: every published reference was pushed,
// dropped, sampled or shed, and every pushed reference was consumed.
func checkTenant(res *result, svc *hp.Service, key string) {
	var ts *hp.TenantStats
	st := svc.Stats()
	for i := range st.Tenants {
		if st.Tenants[i].Key == key {
			ts = &st.Tenants[i]
		}
	}
	if ts == nil {
		res.check(false, "tenant %q missing from service stats", key)
		return
	}
	p := ts.Profile
	sum := p.Pushed + p.Dropped + p.Sampled + p.BurstShed + p.QuotaShed
	res.check(ts.PublishedRefs == sum,
		"tenant %s: published %d != pushed %d + dropped %d + sampled %d + burst %d + quota %d",
		key, ts.PublishedRefs, p.Pushed, p.Dropped, p.Sampled, p.BurstShed, p.QuotaShed)
	res.check(p.Consumed == p.Pushed, "tenant %s: consumed %d != pushed %d after Flush", key, p.Consumed, p.Pushed)
	res.check(p.AnalysesFailed == 0, "tenant %s: %d cycle analyses failed", key, p.AnalysesFailed)
}

// paperAnalysis is the paper's §4.1 stream detection setting, the tenant's
// cycle analysis in every part.
func paperAnalysis() hp.AnalysisConfig {
	c := experiment.AnalysisConfig()
	return hp.AnalysisConfig{
		MinLen: int(c.MinLen), MaxLen: int(c.MaxLen), MinUnique: c.MinUnique,
		MinCoverage: c.MinCoverage, MaxStreams: c.MaxStreams,
	}
}

// scaledBurst is the documented 5% burst-sampling deployment: the paper's
// 60-reference bursts, awake only (experiment.ScaledSamplingConfig).
func scaledBurst() hp.BurstConfig {
	c := experiment.ScaledSamplingConfig()
	return hp.BurstConfig{Enabled: true, NCheck: c.NCheck0, NInstr: c.NInstr0, NAwake: c.NAwake0, NHibernate: c.NHibernate0}
}
