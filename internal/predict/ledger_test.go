package predict

import (
	"math/rand"
	"testing"
)

// has reports whether a is a member: the read-only probe the ledger itself
// never needs (remove probes and deletes in one pass).
func (s *addrSet) has(a uint64) bool {
	if a == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(a); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case a:
			return true
		case 0:
			return false
		}
	}
}

// TestAddrSetDifferential drives the ledger's open-addressed set with
// random add/has/remove against a map oracle. Keys come from a small pool
// so removals hit often and probe runs collide and wrap; the pool includes
// address 0 (kept outside the slots) and, for larger pools, enough keys to
// push the set through several doublings.
func TestAddrSetDifferential(t *testing.T) {
	for _, pool := range []int{4, 40, 3000} {
		r := rand.New(rand.NewSource(int64(pool)))
		keys := make([]uint64, pool)
		for i := range keys {
			switch r.Intn(3) {
			case 0:
				keys[i] = uint64(i) * 64 // strided, like cache-line addresses
			case 1:
				keys[i] = r.Uint64()
			default:
				keys[i] = uint64(i)
			}
		}
		keys[0] = 0
		var s addrSet
		oracle := map[uint64]bool{}
		for step := 0; step < 200*pool; step++ {
			k := keys[r.Intn(pool)]
			switch op := r.Intn(10); {
			case op < 5:
				if got, want := s.add(k), !oracle[k]; got != want {
					t.Fatalf("pool %d step %d: add(%#x) = %v, want %v", pool, step, k, got, want)
				}
				oracle[k] = true
			case op < 8:
				if got, want := s.remove(k), oracle[k]; got != want {
					t.Fatalf("pool %d step %d: remove(%#x) = %v, want %v", pool, step, k, got, want)
				}
				delete(oracle, k)
			default:
				if got, want := s.has(k), oracle[k]; got != want {
					t.Fatalf("pool %d step %d: has(%#x) = %v, want %v", pool, step, k, got, want)
				}
			}
			if s.len() != len(oracle) {
				t.Fatalf("pool %d step %d: len = %d, want %d", pool, step, s.len(), len(oracle))
			}
		}
		for _, k := range keys {
			if s.has(k) != oracle[k] {
				t.Fatalf("pool %d: final has(%#x) = %v, want %v", pool, k, s.has(k), oracle[k])
			}
		}
		if pool == 3000 && len(s.slots) < 8*addrSetMinSlots {
			t.Fatalf("pool %d: %d slots, want several doublings past %d", pool, len(s.slots), addrSetMinSlots)
		}
	}
}

// TestAddrSetWrappedDelete pins backward-shift deletion inside probe runs
// that wrap past the end of the slot array: keys are chosen to share the
// last home slot, so their run spills into slot 0 onward, then each is
// removed in turn while the rest must stay reachable.
func TestAddrSetWrappedDelete(t *testing.T) {
	var s addrSet
	s.add(1) // allocate the first 16 slots
	last := uint64(len(s.slots) - 1)
	var run []uint64
	for k := uint64(2); len(run) < 5; k++ {
		if s.home(k) == last {
			run = append(run, k)
		}
	}
	for _, k := range run {
		if !s.add(k) {
			t.Fatalf("add(%#x) reported a duplicate", k)
		}
	}
	if len(s.slots) != addrSetMinSlots {
		t.Fatalf("set grew to %d slots; the test needs the run to wrap in %d", len(s.slots), addrSetMinSlots)
	}
	for i, k := range run {
		if !s.remove(k) {
			t.Fatalf("remove(%#x) missed a member", k)
		}
		for _, rest := range run[i+1:] {
			if !s.has(rest) {
				t.Fatalf("after removing %#x, %#x is unreachable", k, rest)
			}
		}
		if !s.has(1) {
			t.Fatalf("after removing %#x, unrelated key 1 is unreachable", k)
		}
	}
	if s.len() != 1 {
		t.Fatalf("len = %d after removing the run, want 1", s.len())
	}
}
