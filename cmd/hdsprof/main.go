// Command hdsprof profiles a benchmark's data reference stream offline and
// prints its hot data streams: the output of the paper's §2 pipeline
// (bursty-tracing sample -> Sequitur -> fast hot data stream analysis)
// without the optimization back end.
//
// Usage:
//
//	hdsprof -bench mcf [-refs 200000] [-precise] [-top 20]
//	hdsprof -bench mcf -save trace.hds     # capture the trace to a file
//	hdsprof -load trace.hds                # analyze a previously saved trace
//	hdsprof -bench vpr -predictor all      # replay the trace through every predictor
//
// To profile through the sharded service instead, run hdsprofd and POST a
// saved trace to its /ingest endpoint.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"hotprefetch"
	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/tracefile"
	"hotprefetch/internal/workload"
)

// collector records every executed data reference until its budget runs out
// or a shutdown signal lands.
type collector struct {
	profile *hotprefetch.Profile
	raw     []ref.Ref // kept when the trace will be saved or replayed
	keepRaw bool
	budget  int
	machine *machine.Machine
	stop    *atomic.Bool // SIGINT/SIGTERM: yield the machine, stop producing
}

func (c *collector) Check(pc int) (machine.Version, uint64) {
	return machine.VersionInstrumented, 0
}

func (c *collector) TraceRef(pc int, addr machine.Word, isWrite bool) uint64 {
	r := ref.Ref{PC: pc, Addr: addr}
	c.profile.Add(r)
	if c.keepRaw {
		c.raw = append(c.raw, r)
	}
	c.budget--
	if c.budget <= 0 || c.stop.Load() {
		c.machine.Yield()
	}
	return 0
}

func (c *collector) Match(pc int, addr machine.Word) ([]machine.Word, uint64) {
	return nil, 0
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hdsprof: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process plumbing, so tests can drive the command
// in-process and read its report from out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hdsprof", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to profile")
	refs := fs.Int("refs", 200000, "number of data references to trace")
	precise := fs.Bool("precise", false, "use the exact (Larus-style) detector instead of the fast approximation")
	top := fs.Int("top", 20, "streams to print")
	save := fs.String("save", "", "write the captured trace to this file")
	load := fs.String("load", "", "analyze a saved trace instead of profiling a benchmark")
	dot := fs.String("dot", "", "write the prefix-matching DFSM for the streams as Graphviz DOT")
	headLen := fs.Int("headlen", 2, "prefix length for the -dot DFSM")
	predictor := fs.String("predictor", "", "train this predictor on the detected streams and replay the captured trace through it; a registry name or \"all\"")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var replayNames []string
	if *predictor != "" {
		if *predictor == "all" {
			replayNames = hotprefetch.PredictorNames()
		} else {
			replayNames = []string{*predictor}
		}
		for _, n := range replayNames {
			if _, err := hotprefetch.NewPredictor(n, nil, *headLen); err != nil {
				return err
			}
		}
	}

	// The raw trace is kept when it will be saved or replayed through a
	// predictor after analysis.
	profile := hotprefetch.NewProfile()
	col := &collector{
		profile: profile,
		budget:  *refs,
		keepRaw: *save != "" || *predictor != "",
		stop:    new(atomic.Bool),
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the producer side
	// and lets the run fall through to the normal analyze/report path, so an
	// interrupted profile still prints a complete report. A second signal
	// gets the default fatal behavior.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case s := <-sigc:
			log.Printf("received %v: stopping trace, analyzing and reporting (send again to kill)", s)
			col.stop.Store(true)
			signal.Stop(sigc)
		case <-done:
		}
	}()

	name := *bench
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		trace, err := tracefile.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, r := range trace {
			if col.stop.Load() {
				break
			}
			profile.Add(r)
			if col.keepRaw {
				col.raw = append(col.raw, r)
			}
		}
		name = *load
	} else {
		p, ok := workload.ByName(*bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *bench)
		}
		inst := workload.Build(p)
		m := inst.NewMachine(workload.CacheConfig(), true)
		col.machine = m
		m.RT = col

		m.Start()
		for col.budget > 0 && !col.stop.Load() {
			st, err := m.Run(0)
			if err != nil {
				return err
			}
			if st == machine.Halted {
				break
			}
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := tracefile.Write(f, col.raw); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d references to %s\n", len(col.raw), *save)
	}

	cfg := hotprefetch.DefaultAnalysisConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	var streams []hotprefetch.Stream
	if *precise {
		streams = profile.HotStreamsPrecise(cfg)
	} else {
		streams = profile.HotStreams(cfg)
	}
	traceLen := profile.Len()
	fmt.Fprintf(out, "source       %s\n", name)
	fmt.Fprintf(out, "traced refs  %d\n", traceLen)
	fmt.Fprintf(out, "grammar size %d symbols\n", profile.GrammarSize())
	fmt.Fprintf(out, "hot streams  %d\n", len(streams))
	fmt.Fprintln(out)

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		if err := writeDOT(f, streams, *headLen); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote DFSM to %s\n", *dot)
	}

	for i, s := range streams {
		if i >= *top {
			fmt.Fprintf(out, "... and %d more\n", len(streams)-*top)
			break
		}
		fmt.Fprintf(out, "#%-3d len=%-4d heat=%-7d coverage=%5.2f%%  head: ", i+1, len(s.Refs), s.Heat, 100*s.Coverage(traceLen))
		for j, r := range s.Refs {
			if j == 4 {
				fmt.Fprint(out, "...")
				break
			}
			fmt.Fprintf(out, "(pc%d,0x%x) ", r.PC, r.Addr)
		}
		fmt.Fprintln(out)
	}

	if len(replayNames) > 0 {
		return replayPredictors(out, replayNames, streams, col.raw, *headLen)
	}
	return nil
}

// replayPredictors trains each named predictor on the detected streams and
// replays the captured trace through it, reporting the accuracy ledger —
// an offline miniature of the Supervisor's A/B comparison.
func replayPredictors(out io.Writer, names []string, streams []hotprefetch.Stream, raw []ref.Ref, headLen int) error {
	fmt.Fprintln(out)
	fmt.Fprintln(out, "predictor replay (trained on the streams above, over the captured trace)")
	for _, name := range names {
		p, err := hotprefetch.NewPredictor(name, streams, headLen)
		if err != nil {
			return err
		}
		p.EnableAccuracyTracking(0)
		var comparisons uint64
		for _, r := range raw {
			_, cmp := p.Observe(r)
			comparisons += uint64(cmp)
		}
		issued, hits := p.AccuracyCounters()
		acc := 0.0
		if issued > 0 {
			acc = float64(hits) / float64(issued)
		}
		cmpPerRef := 0.0
		if len(raw) > 0 {
			cmpPerRef = float64(comparisons) / float64(len(raw))
		}
		line := fmt.Sprintf("%-8s issued=%-8d hits=%-8d accuracy=%.2f cmp/ref=%.1f", name, issued, hits, acc, cmpPerRef)
		if b, ok := p.(hotprefetch.AccuracyBooks); ok {
			_, _, outstanding, dropped := b.AccuracyBooks()
			line += fmt.Sprintf(" outstanding=%d dropped=%d", outstanding, dropped)
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// writeDOT builds the combined prefix-matching DFSM for the streams and
// renders it as Graphviz DOT.
func writeDOT(w io.Writer, streams []hotprefetch.Stream, headLen int) error {
	split := make([]dfsm.Stream, 0, len(streams))
	for _, s := range streams {
		split = append(split, dfsm.Split(s.Refs, s.Heat, headLen))
	}
	return dfsm.Build(split, headLen).WriteDOT(w)
}
