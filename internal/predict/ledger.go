package predict

import "math/bits"

// defaultWindow is the outstanding-address window EnableAccuracyTracking
// uses for window <= 0.
const defaultWindow = 4096

// tracking gives a predictor the opt-in accuracy ledger and the three
// accounting methods of the contract. Embedders call ledger.record after
// each observation, behind a nil check, so a predictor with tracking off
// pays one predictable branch on its observe path.
type tracking struct {
	ledger *ledger
}

// EnableAccuracyTracking turns on prefetch accuracy accounting: every
// address the predictor returns counts as issued, and an issued address
// observed later counts as a hit — the paper's Table 2 accuracy metric
// (useful prefetches over prefetches issued), measured online. window
// bounds the outstanding-address set (<= 0 means 4096); addresses evicted
// by newer prefetches never count as hits. Once tracking is on, a further
// call keeps the existing books (and window), so cumulative counters never
// go backwards.
func (t *tracking) EnableAccuracyTracking(window int) {
	if t.ledger != nil {
		return
	}
	if window <= 0 {
		window = defaultWindow
	}
	t.ledger = &ledger{window: window}
}

// AccuracyCounters returns the cumulative prefetch addresses issued and the
// subset subsequently observed. Both are zero until EnableAccuracyTracking.
func (t *tracking) AccuracyCounters() (issued, hits uint64) {
	if t.ledger == nil {
		return 0, 0
	}
	return t.ledger.issued, t.ledger.hits
}

// AccuracyBooks returns the full ledger: addresses issued, the subset
// observed (hits), the subset still outstanding in the window, and the
// subset dropped unobserved (FIFO evictions plus issues coalesced with an
// already-outstanding copy). issued == hits + outstanding + dropped. All
// zero until EnableAccuracyTracking.
func (t *tracking) AccuracyBooks() (issued, hits, outstanding, dropped uint64) {
	l := t.ledger
	if l == nil {
		return 0, 0, 0, 0
	}
	return l.issued, l.hits, uint64(l.set.len()), l.evicted + l.coalesced
}

// ledger is the FIFO-window accuracy ledger: every address issued by a
// prefetch becomes outstanding, and an outstanding address observed later
// counts as a hit. Outstanding addresses are bounded by a FIFO window so a
// stale predictor cannot grow the set without limit.
//
// Both structures grow with use rather than with the window: a ledger is
// rebuilt on every retrain, and a predictor that rarely fires keeps a
// 16-slot set and a short FIFO that stay in cache on every observation.
type ledger struct {
	set    addrSet  // the outstanding addresses
	fifo   []uint64 // insertion-ordered ring over the outstanding set
	window int      // FIFO capacity: fifo grows by append up to it
	head   int      // next eviction slot once fifo is full

	// Every issued address is either coalesced with an already-outstanding
	// copy at issue time, observed later (hit), evicted by the FIFO window,
	// or still outstanding (in set).
	issued    uint64
	hits      uint64
	evicted   uint64
	coalesced uint64
}

// record books one observation: addr is credited first, then the prefetch
// it triggered is issued, so a reference never hits its own prefetch.
// record inlines into the predictors' observe paths, so an observation
// with nothing outstanding and nothing fired — most of them, for an
// accurate predictor whose issued streams are soon consumed — costs no
// call at all.
func (l *ledger) record(addr uint64, prefetch []uint64) {
	if l.set.empty() && prefetch == nil {
		return
	}
	l.book(addr, prefetch)
}

func (l *ledger) book(addr uint64, prefetch []uint64) {
	if l.set.remove(addr) {
		l.hits++
	}
	if prefetch != nil {
		l.issue(prefetch)
	}
}

// issue makes a fired prefetch list outstanding.
func (l *ledger) issue(prefetch []uint64) {
	l.issued += uint64(len(prefetch))
	for _, a := range prefetch {
		if !l.set.add(a) {
			l.coalesced++ // one future observation clears either copy
			continue
		}
		if len(l.fifo) < l.window {
			l.fifo = append(l.fifo, a)
			continue
		}
		// Window full: evict the oldest outstanding address. A slot whose
		// address already left the set (hit, or re-issued into a younger
		// slot) is stale — overwriting it retires nothing. A stale slot can
		// hold a itself, which must not evict the copy just added.
		if old := l.fifo[l.head]; old != a && l.set.remove(old) {
			l.evicted++
		}
		l.fifo[l.head] = a
		l.head++
		if l.head == len(l.fifo) {
			l.head = 0
		}
	}
}

// addrSet is the ledger's outstanding-address set: open addressing over a
// power-of-two slot array with a multiplicative hash and linear probing,
// deleting by backward shift (as internal/sequitur's digram table does) so
// a long-lived ledger never accumulates tombstones. It starts at
// addrSetMinSlots slots and doubles past half full, so probe runs stay
// short. A zero slot is empty, so address 0 lives in a flag of its own.
type addrSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): home slots take the hash's top bits
	n     int  // nonzero members
	zero  bool // address 0 is a member
}

const addrSetMinSlots = 16

// home is a's first probe slot (Fibonacci hashing: the top bits of the
// product mix every bit of a, so strided addresses spread).
func (s *addrSet) home(a uint64) uint64 { return (a * 0x9E3779B97F4A7C15) >> s.shift }

func (s *addrSet) empty() bool { return s.n == 0 && !s.zero }

func (s *addrSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// add inserts a, reporting false if it was already a member.
func (s *addrSet) add(a uint64) bool {
	if a == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(a); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case a:
			return false
		case 0:
			s.slots[i] = a
			s.n++
			return true
		}
	}
}

// remove deletes a, reporting whether it was a member. The later entries
// of a's probe run shift back over the hole, so every surviving entry
// stays reachable from its home slot without tombstones.
func (s *addrSet) remove(a uint64) bool {
	if a == 0 {
		was := s.zero
		s.zero = false
		return was
	}
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	i := s.home(a)
	for s.slots[i] != a {
		if s.slots[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
	return true
}

// grow doubles the slot array (or allocates the first one) and rehashes.
func (s *addrSet) grow() {
	old := s.slots
	size := addrSetMinSlots
	if len(old) > 0 {
		size = 2 * len(old)
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, a := range old {
		if a == 0 {
			continue
		}
		i := s.home(a)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = a
	}
}
