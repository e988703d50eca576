//go:build linux || darwin

package hotprefetch

import (
	"syscall"
	"testing"
	"time"
)

// maxIdleCores bounds the CPU an idle profile may burn. A consumer that
// polls its empty ring keeps a whole core busy per shard, so any spinning
// end lands far above it; a parked profile measures ~0.
const maxIdleCores = 0.1

// processCPU returns the user plus system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// assertIdle measures process CPU over 300 ms idle windows and fails if the
// process used maxIdleCores or more in every one of three windows. Taking
// the best window keeps a GC cycle or a straggler from an earlier test
// from failing the check; a spinning consumer burns CPU in all of them.
func assertIdle(t *testing.T) {
	t.Helper()
	const window = 300 * time.Millisecond
	best := -1.0
	for attempt := 0; attempt < 3; attempt++ {
		cpu0, wall0 := processCPU(t), time.Now()
		time.Sleep(window)
		cores := float64(processCPU(t)-cpu0) / float64(time.Since(wall0))
		if best < 0 || cores < best {
			best = cores
		}
		if best < maxIdleCores {
			return
		}
	}
	t.Fatalf("idle process used %.2f cores over %v, want < %.2f: something spins instead of parking",
		best, window, maxIdleCores)
}

// TestIdleProfileUsesNoCPU checks that a Block profile with nothing to
// ingest costs no CPU: its shard consumers park on their empty rings
// instead of polling them.
func TestIdleProfileUsesNoCPU(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 4, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < sp.NumShards(); i++ {
		if err := sp.Shard(i).AddBatch(coreTrace(512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdle(t)
}

// TestServiceIdleTenantUsesNoCPU is the service-level twin: one registered
// tenant that has published once and gone quiet must not keep a core busy.
func TestServiceIdleTenantUsesNoCPU(t *testing.T) {
	svc, err := NewService(ServiceConfig{Tenant: ShardedConfig{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tn, err := svc.Tenant("idle")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Profile().PublishBatch(1, coreTrace(512)); err != nil {
		t.Fatal(err)
	}
	if err := tn.Profile().Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdle(t)
}
