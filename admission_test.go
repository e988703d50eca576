package hotprefetch

// Tests for the shard's single admission path (ProfileShard.AddBatch, which
// Add and PublishBatch wrap): exact books across every combination of
// ingest policy, quota and burst gate for each entry point, and the
// zero-allocation contract of the per-reference wrapper.

import (
	"fmt"
	"testing"
)

// TestAdmissionReconciliation runs the same trace through each producer
// entry point — a per-reference Add loop, chunked AddBatch, and
// PublishBatch — under every {policy} × {RefQuota} × {Burst} combination.
// After Flush every produced reference must sit in exactly one of Pushed,
// Dropped, Sampled, BurstShed or QuotaShed. Under Block nothing sheds on a
// full ring, so the three entry points must admit identical counts.
func TestAdmissionReconciliation(t *testing.T) {
	const (
		produced = 20000
		quota    = 12000
		chunk    = 64
	)
	trace := coreTrace(produced)
	entries := []struct {
		name string
		feed func(sp *ShardedProfile) error
	}{
		{"Add", func(sp *ShardedProfile) error {
			for _, r := range trace {
				if err := sp.Shard(0).Add(r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"AddBatch", func(sp *ShardedProfile) error {
			for pos := 0; pos < len(trace); pos += chunk {
				if err := sp.Shard(0).AddBatch(trace[pos:min(pos+chunk, len(trace))]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"PublishBatch", func(sp *ShardedProfile) error {
			for pos := 0; pos < len(trace); pos += chunk {
				if err := sp.PublishBatch(7, trace[pos:min(pos+chunk, len(trace))]); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, pol := range []IngestPolicy{Block, Drop, Sample} {
		var ringShed uint64 // Dropped + Sampled over this policy's burst-off cells
		for _, q := range []uint64{0, quota} {
			for _, burstOn := range []bool{false, true} {
				var blockWant *Stats
				for _, e := range entries {
					name := fmt.Sprintf("%s/quota%d/burst=%v/%s", pol, q, burstOn, e.name)
					cfg := ShardedConfig{Shards: 1, RingCap: 16, Policy: pol, RefQuota: q}
					if burstOn {
						cfg.Burst = burstTestConfig()
					}
					sp, err := NewShardedProfileConfig(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.feed(sp); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := sp.Flush(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					st := sp.Stats()
					sp.Close()
					if got := st.Pushed + st.Dropped + st.Sampled + st.BurstShed + st.QuotaShed; got != produced {
						t.Errorf("%s: pushed %d + dropped %d + sampled %d + burst %d + quota %d = %d, want %d",
							name, st.Pushed, st.Dropped, st.Sampled, st.BurstShed, st.QuotaShed, got, produced)
					}
					if st.Consumed != st.Pushed {
						t.Errorf("%s: consumed %d != pushed %d after Flush", name, st.Consumed, st.Pushed)
					}
					wantQuotaShed := uint64(0)
					if q > 0 {
						wantQuotaShed = produced - q
					}
					if st.QuotaShed != wantQuotaShed {
						t.Errorf("%s: quota shed %d, want %d", name, st.QuotaShed, wantQuotaShed)
					}
					if burstOn != (st.BurstShed > 0) {
						t.Errorf("%s: burst shed %d with burst=%v", name, st.BurstShed, burstOn)
					}
					if !burstOn {
						ringShed += st.Dropped + st.Sampled
					}
					if pol != Block {
						continue
					}
					if st.Dropped != 0 || st.Sampled != 0 {
						t.Errorf("%s: Block shed dropped %d sampled %d", name, st.Dropped, st.Sampled)
					}
					if blockWant == nil {
						blockWant = &st
					} else if st.Pushed != blockWant.Pushed || st.BurstShed != blockWant.BurstShed ||
						st.QuotaShed != blockWant.QuotaShed {
						t.Errorf("%s: pushed/burst/quota = %d/%d/%d, Add loop gave %d/%d/%d", name,
							st.Pushed, st.BurstShed, st.QuotaShed,
							blockWant.Pushed, blockWant.BurstShed, blockWant.QuotaShed)
					}
				}
			}
		}
		if pol != Block && ringShed == 0 {
			t.Errorf("%s: nothing shed on a 16-slot ring; the full-ring path was not exercised", pol)
		}
	}
}

// TestShardAddZeroAlloc pins the per-reference wrapper to zero allocations
// per call under every policy, with the quota and the burst gate on: the
// one-element batch it hands AddBatch must stay on the stack. The shards
// run no consumer, so only the producer side is measured; the Drop and
// Sample rings are tiny so their shed paths run too.
func TestShardAddZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  ShardedConfig
	}{
		{"Block", ShardedConfig{Policy: Block, RingCap: 4096}},
		{"Drop", ShardedConfig{Policy: Drop, RingCap: 4}},
		{"Sample", ShardedConfig{Policy: Sample, RingCap: 4}},
		{"Quota", ShardedConfig{Policy: Block, RingCap: 4096, RefQuota: 50}},
		{"Burst", ShardedConfig{Policy: Block, RingCap: 4096, Burst: burstTestConfig()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := rawShard(t, c.cfg)
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				if err := s.Add(Ref{PC: i % 37, Addr: uint64(i % 53)}); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("ProfileShard.Add allocates %.2f times per call, want 0", allocs)
			}
		})
	}
}
