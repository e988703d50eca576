package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Start and End are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Run    string        `json:"run"` // workload/part/seed the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records nested spans in memory for one single-goroutine staged
// pass. A disabled tracer records nothing, so the same pass runs untraced.
type tracer struct {
	on     bool
	run    string
	origin time.Time
	spans  []span
	stack  []int

	// captured counts the refs workload.capture spans produced.
	captured float64
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, origin: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = time.Since(t.origin)
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// total returns the summed duration of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[i] = s.dur() - covered
	}
	return out
}

// unattributed returns the share of the root spans' wall time that no
// layer span accounts for: 1 - (sum of non-root self time) / (root time).
func unattributed(spans []span) float64 {
	attributed, root := attribution(spans)
	if root == 0 {
		return 0
	}
	return 1 - float64(attributed)/float64(root)
}

// attribution returns the summed self time of the non-root spans and the
// summed duration of the root spans.
func attribution(spans []span) (attributed, root time.Duration) {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent < 0 {
			root += s.dur()
		} else {
			attributed += self[i]
		}
	}
	return attributed, root
}

// layerTotals are a traced pass's sums behind the metrics that every part
// of a traced run contributes to: the input-generation layer and the
// trace's own health.
type layerTotals struct {
	build, capture   time.Duration // workload.build and workload.capture spans
	captured         float64       // refs the capture spans produced
	attributed, root time.Duration // see attribution
	traced, untraced time.Duration // wall time traced, and untraced (mean of the bracketing passes)
}

func (l *layerTotals) add(o layerTotals) {
	l.build += o.build
	l.capture += o.capture
	l.captured += o.captured
	l.attributed += o.attributed
	l.root += o.root
	l.traced += o.traced
	l.untraced += o.untraced
}

// report sets the workload.* and trace.* metrics from the sums.
func (l layerTotals) report(res *result) {
	res.set("workload.build_ms", "ms", float64(l.build)/1e6)
	res.set("workload.capture_ns_per_ref", "ns/ref", ratio(float64(l.capture), l.captured))
	res.set("trace.unattributed_frac", "fraction", 1-ratio(float64(l.attributed), float64(l.root)))
	res.set("trace.overhead_frac", "fraction", ratio(float64(l.traced-l.untraced), float64(l.untraced)))
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if dir == "" || !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	return f.Close()
}
