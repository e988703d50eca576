package predict

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
	t.ledger = &ledger{
		set:  make(map[uint64]bool, window),
		fifo: make([]uint64, 0, window),
	}
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
	return l.issued, l.hits, uint64(len(l.set)), l.evicted + l.coalesced
}

// ledger is the FIFO-window accuracy ledger: every address issued by a
// prefetch becomes outstanding, and an outstanding address observed later
// counts as a hit. Outstanding addresses are bounded by a FIFO window so a
// stale predictor cannot grow the set without limit.
type ledger struct {
	// set is the outstanding-address set. Its bool values (all true) keep
	// the lookup in record cheap enough for record to inline into the
	// predictors' observe paths.
	set  map[uint64]bool
	fifo []uint64 // insertion-ordered ring over the outstanding set
	head int      // next eviction slot

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
func (l *ledger) record(addr uint64, prefetch []uint64) {
	if l.set[addr] {
		l.hits++
		delete(l.set, addr)
	}
	if prefetch != nil {
		l.issue(prefetch)
	}
}

// issue makes a fired prefetch list outstanding.
func (l *ledger) issue(prefetch []uint64) {
	l.issued += uint64(len(prefetch))
	for _, a := range prefetch {
		if l.set[a] {
			l.coalesced++ // one future observation clears either copy
			continue
		}
		if len(l.fifo) < cap(l.fifo) {
			l.fifo = append(l.fifo, a)
		} else {
			// Window full: evict the oldest outstanding address. A slot
			// whose address already left the set (hit, or re-issued into a
			// younger slot) is stale — overwriting it retires nothing.
			if old := l.fifo[l.head]; old != a {
				if l.set[old] {
					delete(l.set, old)
					l.evicted++
				}
			}
			l.fifo[l.head] = a
			l.head++
			if l.head == len(l.fifo) {
				l.head = 0
			}
		}
		l.set[a] = true
	}
}
