package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/workload"
)

// The sim part is the paper's Figure 12 pipeline in simulation: for each
// workload program (seeded order and Params.Seed), the unoptimized
// baseline and the Dyn-pref run over identical initial heaps. Simulated
// statistics are deterministic; only host time varies between runs.

// simProgram is one built catalog program with the two machines its next
// pass runs: uninstrumented for the baseline, instrumented for Dyn-pref.
type simProgram struct {
	p         workload.Params
	inst      *workload.Instance
	base, dyn *machine.Machine
}

// machines builds fresh machines for the next pass over identical heaps.
func (sp *simProgram) machines() {
	cache := workload.CacheConfig()
	sp.base = sp.inst.NewMachine(cache, false)
	sp.dyn = sp.inst.NewMachine(cache, true)
}

// simOutcome is everything a pass simulated for one program; two passes of
// the same inputs must produce equal outcomes.
type simOutcome struct {
	Name     string
	Baseline uint64
	Exec     uint64
	Cycles   []opt.CycleStats
	Machine  machine.Stats
	Cache    memsim.Stats
}

func buildSim(o options, t *tracer) []simProgram {
	progs := programOrder(newRand(o.seed, "sim"), o.programs)
	out := make([]simProgram, len(progs))
	for i, p := range progs {
		p = scaled(p, o.size.simScale)
		out[i].p = p
		t.do("workload.build", func() {
			out[i].inst = workload.Build(p)
			out[i].machines()
		})
	}
	return out
}

// simPass runs baseline and Dyn-pref for every program, returning the
// outcomes and the host time opt.Run took.
func simPass(progs []simProgram, t *tracer) ([]simOutcome, time.Duration, error) {
	outs := make([]simOutcome, len(progs))
	var host time.Duration
	for i := range progs {
		sp := &progs[i]
		var base uint64
		var err error
		if sp.base == nil {
			sp.machines()
		}
		t.do("opt.baseline", func() { base, err = opt.RunBaseline(sp.base) })
		if err != nil {
			return nil, 0, fmt.Errorf("%s baseline: %w", sp.p.Name, err)
		}
		var res opt.Result
		start := time.Now()
		t.do("opt.dynpref", func() { res, err = opt.Run(sp.dyn, experiment.OptConfig(opt.ModeDynPref)) })
		sp.base, sp.dyn = nil, nil // a machine runs once
		host += time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("%s dyn-pref: %w", sp.p.Name, err)
		}
		outs[i] = simOutcome{Name: sp.p.Name, Baseline: base, Exec: res.ExecCycles,
			Cycles: res.Cycles, Machine: res.Machine, Cache: res.Cache}
	}
	return outs, host, nil
}

// speedupPct is 100·(1 − geomean of Dyn-pref over baseline cycles).
func speedupPct(outs []simOutcome) float64 {
	r := make([]float64, len(outs))
	for i, o := range outs {
		r[i] = float64(o.Exec) / float64(o.Baseline)
	}
	return 100 * (1 - geomean(r))
}

func instructions(outs []simOutcome) float64 {
	var n float64
	for _, o := range outs {
		n += float64(o.Machine.Instructions)
	}
	return n
}

// checkSim verifies a pass: every program simulated and optimized.
func checkSim(res *result, outs []simOutcome) {
	for _, o := range outs {
		res.check(o.Baseline > 0 && o.Exec > 0, "%s: empty simulation", o.Name)
		res.check(len(o.Cycles) > 0, "%s: no optimization cycle completed", o.Name)
	}
}

// measureSim runs whole passes while another one should end by the
// deadline, at least one, and adds the sim part's checks and metrics to res.
func measureSim(o options, res *result, progs []simProgram, deadline time.Time) error {
	// Every pass after the first must simulate exactly what the first did.
	var first []simOutcome
	var rates []float64
	var last time.Duration
	for pass := 0; pass == 0 || time.Now().Add(last).Before(deadline); pass++ {
		start := time.Now()
		outs, host, err := simPass(progs, newTracer(false, ""))
		last = time.Since(start)
		res.Attempted += 2 * uint64(len(progs))
		if err != nil {
			return err
		}
		if first == nil {
			first = outs
			checkSim(res, outs)
		} else {
			res.check(reflect.DeepEqual(first, outs), "sim pass %d simulated different statistics than pass 0", pass)
		}
		rates = append(rates, instructions(outs)/host.Seconds())
	}
	res.set("sim_speedup_pct", "%", speedupPct(first))
	// The simulator's host speed is logged, not reported: it is no cost a
	// user of the scheme pays, and it moves with the host's load by more
	// than the benchmark's bounds allow. opt.*_s in the traced run time it.
	fmt.Fprintf(os.Stderr, "perfbench: sim: %d passes, median %.0f simulated instr/s\n", len(rates), median(rates))
	return nil
}

// traceSim runs the simulation pass, each followed by a memsim replay of
// every program's captured trace, untraced, traced and untraced again;
// checks the passes simulated identical statistics; and reports the
// per-layer metrics of the traced one.
func traceSim(o options) (*result, error) {
	res := newResult()
	var outs [3][]simOutcome
	var walls [3]time.Duration
	var traced *tracer
	var replayed float64
	var replayStats memsim.Stats
	for i, on := range []bool{false, true, false} {
		t := newTracer(on, o.runID())
		if on {
			traced = t
		}
		start := time.Now()
		root := t.begin("pass")
		progs := buildSim(o, t)
		var err error
		outs[i], _, err = simPass(progs, t)
		if err != nil {
			return nil, err
		}
		res.Attempted += 2 * uint64(len(progs))
		for _, sp := range progs {
			var tr []ref.Ref
			t.do("workload.capture", func() { tr, err = experiment.CaptureTrace(sp.p, o.size.replayRef) })
			if err != nil {
				return nil, fmt.Errorf("capture %s: %w", sp.p.Name, err)
			}
			t.captured += float64(len(tr))
			h := memsim.New(workload.CacheConfig())
			t.do("memsim.replay", func() {
				now := uint64(0)
				for _, r := range tr {
					now += 1 + h.Access(now, r.PC, r.Addr, false)
				}
			})
			if on {
				replayed += float64(len(tr))
				st := h.Stats()
				replayStats.L1Hits += st.L1Hits
				replayStats.L1Misses += st.L1Misses
			}
		}
		t.end(root)
		walls[i] = time.Since(start)
	}
	checkSim(res, outs[1])
	res.check(reflect.DeepEqual(outs[0], outs[1]) && reflect.DeepEqual(outs[2], outs[1]),
		"traced pass simulated different statistics than the untraced passes")
	t := traced

	var cycles, hot, procs, prefetches, useful float64
	var instr, refs, checks, matches float64
	for _, r := range outs[1] {
		for _, c := range r.Cycles {
			cycles++
			hot += float64(c.HotStreams)
			procs += float64(c.ProcsModified)
		}
		prefetches += float64(r.Cache.Prefetches)
		useful += float64(r.Cache.UsefulPrefetches)
		instr += float64(r.Machine.Instructions)
		refs += float64(r.Machine.Refs)
		checks += float64(r.Machine.Checks)
		matches += float64(r.Machine.Matches)
	}
	res.set("opt.baseline_s", "s", t.total("opt.baseline").Seconds())
	res.set("opt.dynpref_s", "s", t.total("opt.dynpref").Seconds())
	res.set("opt.cycles", "count", cycles)
	res.set("opt.hot_streams_per_cycle", "count", ratio(hot, cycles))
	res.set("opt.procs_modified", "count", ratio(procs, cycles))
	res.set("machine.instructions", "count", instr)
	res.set("machine.refs", "count", refs)
	res.set("machine.checks", "count", checks)
	res.set("machine.matches", "count", matches)
	res.set("memsim.access_ns", "ns", ratio(float64(t.total("memsim.replay")), replayed))
	res.set("memsim.l1_miss_ratio", "fraction", replayStats.MissRatio())
	res.set("memsim.prefetches", "count", prefetches)
	res.set("memsim.useful_frac", "fraction", ratio(useful, prefetches))
	recordTrace(res, t, walls[1], (walls[0]+walls[2])/2)
	return res, t.write(o.out, o.spanFile())
}
