// Command perfbench is the repository's end-to-end benchmark. One run
// measures one seeded workload for a fixed time and prints, as the last line
// of standard output, a JSON object with the run's correctness verdict, the
// operations attempted and failed, and its metrics:
//
//	go build -o perfbench . && ./perfbench --workload memory-bound --seed 1 --seconds 50 --trace 0
//
// A workload is a set of catalog programs (see BENCHMARK.json for why each
// exists). Every run drives the workload's programs through four parts in
// turn, so every run reports every metric:
//
//   - ingest: two closed-loop client.Capture producers per program publish
//     its traces over loopback TCP to one service tenant, losslessly.
//   - ingest-sampled: the same producers; the tenant runs the burst
//     sampling front end at 5%.
//   - phase: an open-loop producer plays relocated program segments while a
//     poller retrains a ConcurrentMatcher from GET /hotstreams; reports
//     profile-to-prediction latency.
//   - sim: the paper's simulated pipeline (opt.RunBaseline and opt.Run in
//     Dyn-pref mode) over the programs.
//
// With --trace 0 the end-to-end metrics are printed. With --trace 1 the
// same inputs are driven through the layers in stages — untraced, with
// spans around every call, and untraced again — and the per-layer metrics
// of the traced passes are printed; their spans go to the -out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists the failed correctness checks; any makes the run fail.
	problems []string
	// layers holds a traced part's sums behind the metrics every part
	// contributes to.
	layers layerTotals
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a correctness check; a false condition fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are one run's settings.
type options struct {
	workload string
	programs []string // the workload's catalog programs
	part     string   // the part being traced, for span run ids
	seed     uint64
	seconds  float64
	trace    bool
	out      string // span output directory ("" disables)
	size     sizes
}

// sizes scale a workload's inputs; fullSizes is what the benchmark runs,
// tinySizes what the smoke test runs.
type sizes struct {
	setupReps   int // set-up repetitions behind the reported median
	segmentRefs int // refs per producer per catalog program (ingest)
	maxOffset   int // largest seeded offset into a program's trace
	batchRefs   int // refs per synchronous publish (ingest)
	stagedRefs  int // refs per producer trace in the staged pass (ingest)

	phaseRefs   int     // refs per phase
	phaseRate   float64 // refs per second, open loop
	stagedPhase int     // phases in the staged pass

	simScale  int // divides every catalog program's LapsPerBlock (1 = paper size)
	replayRef int // refs per program replayed through memsim in the staged pass
}

var fullSizes = sizes{
	setupReps: 7, segmentRefs: 200_000, maxOffset: 100_000, batchRefs: 4096,
	stagedRefs: 100_000,
	phaseRefs:  20_000, phaseRate: 200_000, stagedPhase: 20,
	simScale: 1, replayRef: 200_000,
}

var tinySizes = sizes{
	setupReps: 2, segmentRefs: 20_000, maxOffset: 5_000, batchRefs: 1024,
	stagedRefs: 5_000,
	phaseRefs:  1000, phaseRate: 20_000, stagedPhase: 4,
	simScale: 3, replayRef: 10_000,
}

// workloads name the catalog programs each workload runs: the three most
// memory-bound programs, and the rest.
var workloads = map[string][]string{
	"memory-bound": {"vpr", "mcf", "twolf"},
	"mixed":        {"parser", "vortex", "boxsim"},
}

// Shares of --seconds the closed-loop parts get; phase plays whole
// episodes in phaseShare of it, and sim passes fill the rest.
const (
	ingestShare  = 0.25
	sampledShare = 0.15
	phaseShare   = 0.4
)

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 50, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the staged traced passes and prints per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for span files (traced runs)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.size = fullSizes

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and settles its verdict.
func run(o options) (*result, error) {
	progs, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o.programs = progs
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runMeasured(o)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		res.check(false, "no operation attempted")
	}
	if !o.trace {
		res.set("rss_peak_mb", "MB", peakRSSMB())
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// runID names the traced part's spans; spanFile is the file they go to.
func (o options) runID() string { return fmt.Sprintf("%s/%s/seed%d", o.workload, o.part, o.seed) }
func (o options) spanFile() string {
	return fmt.Sprintf("%s-%s-seed%d.jsonl", o.workload, o.part, o.seed)
}

// fixture is everything a measured run sets up before timing starts.
type fixture struct {
	ingest                   *ingestInputs
	phaseIn                  *phaseInputs
	sim                      []simProgram
	lossless, sampled, phase *server
}

// setUp captures every part's inputs, builds the simulated programs and
// starts the three services; on failure it stops what it started.
func setUp(o options) (f *fixture, err error) {
	f = &fixture{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	off := newTracer(false, "")
	if f.ingest, err = makeIngestInputs(o, o.size.segmentRefs, off); err != nil {
		return f, err
	}
	if f.phaseIn, err = makePhaseInputs(o, episodes(o)*episodePhases, off); err != nil {
		return f, err
	}
	f.sim = buildSim(o, off)
	if f.lossless, err = startServer(ingestTenant(false)); err != nil {
		return f, err
	}
	if f.sampled, err = startServer(ingestTenant(true)); err != nil {
		return f, err
	}
	f.phase, err = startServer(phaseTenantConfig())
	return f, err
}

// stop stops the services still running.
func (f *fixture) stop() {
	for _, s := range []**server{&f.lossless, &f.sampled, &f.phase} {
		(*s).stop()
		*s = nil
	}
}

// runMeasured sets up, then runs the four parts in turn and reports the
// end-to-end metrics.
func runMeasured(o options) (*result, error) {
	res := newResult()
	f, setupS, err := timedSetup(o.size.setupReps, func() (*fixture, error) { return setUp(o) }, (*fixture).stop)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	res.set("setup_s", "s", setupS)
	oracle := ingestOracle(f.ingest)

	share := func(s float64) time.Duration { return time.Duration(s * o.seconds * float64(time.Second)) }
	startMeasuring(res)
	start := time.Now()
	if err := measureIngest(o, res, f.lossless, f.ingest, oracle, false, share(ingestShare)); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	f.lossless.stop()
	f.lossless = nil
	if err := measureIngest(o, res, f.sampled, f.ingest, oracle, true, share(sampledShare)); err != nil {
		return nil, fmt.Errorf("ingest-sampled: %w", err)
	}
	f.sampled.stop()
	f.sampled = nil
	runtime.GC()
	if err := measurePhase(o, res, f.phase, f.phaseIn); err != nil {
		return nil, fmt.Errorf("phase: %w", err)
	}
	f.phase.stop()
	f.phase = nil
	runtime.GC()
	if err := measureSim(o, res, f.sim, start.Add(share(1))); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return res, nil
}

// tracedPart is one part of a traced run and the per-layer metrics it
// reports, by name or by a prefix ending in ".": each layer is reported
// from the part that carries its load.
type tracedPart struct {
	name string
	run  func(options) (*result, error)
	owns []string
}

var tracedParts = []tracedPart{
	{"ingest", func(o options) (*result, error) { return traceIngest(o, false) },
		[]string{"sharded.publish_ns_per_ref", "sharded.flush_ms", "sharded.banked_us", "sequitur."}},
	{"ingest-sampled", func(o options) (*result, error) { return traceIngest(o, true) },
		[]string{"client.", "tracefile.", "service.", "burst."}},
	// Budget cycles are rare on the ingest tenant and frequent on phase's.
	{"phase", tracePhase, []string{"sharded.cycles", "sharded.banked_streams", "hotds.", "dfsm.", "phase."}},
	{"sim", traceSim, []string{"opt.", "machine.", "memsim."}},
}

// reports reports whether the part reports metric name.
func (p tracedPart) reports(name string) bool {
	for _, o := range p.owns {
		if name == o || strings.HasSuffix(o, ".") && strings.HasPrefix(name, o) {
			return true
		}
	}
	return false
}

// runTraced runs every part's staged pass and reports the per-layer
// metrics; the workload and trace metrics sum over the parts.
func runTraced(o options) (*result, error) {
	res := newResult()
	var lt layerTotals
	for _, p := range tracedParts {
		po := o
		po.part = p.name
		r, err := p.run(po)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, pr := range r.problems {
			res.problems = append(res.problems, p.name+": "+pr)
		}
		for name, m := range r.Metrics {
			if p.reports(name) {
				res.Metrics[name] = m
			}
		}
		lt.add(r.layers)
	}
	lt.report(res)
	return res, nil
}

// startMeasuring hands set-up and oracle garbage back to the OS and resets
// the process's peak resident set size (writing 5 to clear_refs sets VmHWM
// to the current RSS), so rss_peak_mb covers only the measured run.
func startMeasuring(res *result) {
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	res.check(err == nil, "reset peak RSS: %v", err)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// timedSetup runs setup reps times, tearing down all but the last result,
// and returns the last result with the median set-up seconds. A failed
// set-up must release what it acquired; the previous one is torn down.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC() // the previous set-up's garbage is not this one's to collect
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}
