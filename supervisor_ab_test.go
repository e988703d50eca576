package hotprefetch_test

// Live A/B predictor trials: the Supervisor splits accuracy windows between
// a champion and a challenger implementation over the same trained stream
// set and keeps the winner. These tests pin the two ends of that machinery:
// a genuine upset (the challenger measurably outpredicts a dud champion and
// is promoted) and a chaos run (the challenger's factory panics mid-trial
// and the supervisor demotes cleanly to pass-through with the trial ledger
// fully accounted). Both run under -race in the chaos CI job.

import (
	"testing"

	"hotprefetch"
	"hotprefetch/internal/fault"
)

// dudPredictor is a registered pass-through predictor that never prefetches:
// the weakest possible champion, so any real implementation wins the trial.
type dudPredictor struct{}

func (dudPredictor) Observe(hotprefetch.Ref) ([]uint64, int) { return nil, 1 }
func (dudPredictor) Reset()                                  {}
func (dudPredictor) EnableAccuracyTracking(int)              {}
func (dudPredictor) AccuracyCounters() (uint64, uint64)      { return 0, 0 }
func (dudPredictor) AccuracyBooks() (uint64, uint64, uint64, uint64) {
	return 0, 0, 0, 0
}

func init() {
	hotprefetch.RegisterPredictor("test-dud",
		func([]hotprefetch.Stream, int) (hotprefetch.Predictor, error) {
			return dudPredictor{}, nil
		})
	// test-boom panics when built over a trained stream set — the shape of a
	// broken implementation detonating exactly when an A/B trial hands it
	// the matcher. Built untrained (the deoptimized state) it succeeds, so
	// only the challenger-build path blows up.
	hotprefetch.RegisterPredictor("test-boom",
		func(streams []hotprefetch.Stream, _ int) (hotprefetch.Predictor, error) {
			if len(streams) > 0 {
				panic("test-boom: deliberate build panic")
			}
			return dudPredictor{}, nil
		})
}

// abTrace builds a trace dominated by one repeating hot stream, hot enough
// for the DFSM to predict with high accuracy once trained on it.
func abTrace(phase, reps int) []hotprefetch.Ref {
	stream := make([]hotprefetch.Ref, 12)
	for i := range stream {
		stream[i] = hotprefetch.Ref{PC: 1000*phase + i, Addr: uint64(0x10000*phase + 8*i)}
	}
	var trace []hotprefetch.Ref
	for r := 0; r < reps; r++ {
		trace = append(trace, stream...)
		trace = append(trace, hotprefetch.Ref{PC: 90000 + phase, Addr: uint64(0xdead0000 + 64*r)})
	}
	return trace
}

// feedCycle pushes trace repetitions through shard 0 until a fresh
// grammar-budget cycle banks past base.
func feedCycle(t *testing.T, sp *hotprefetch.ShardedProfile, trace []hotprefetch.Ref, base uint64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := sp.Shard(0).AddBatch(trace); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		if sp.Stats().Resets > base {
			return
		}
	}
	t.Fatalf("no grammar cycle banked past %d", base)
}

// TestSupervisorABWinnerSelection runs a full A/B trial where the champion
// is a dud (never prefetches, accuracy 0) and the challenger is the real
// DFSM: after the champion serves its windows the supervisor hands the
// matcher to the challenger on the same stream set, and at conclusion the
// strictly-higher mean accuracy promotes the challenger for good — observed
// live through Snapshot, the matcher's published name, the per-predictor
// ledgers, and the emitted trial/winner events.
func TestSupervisorABWinnerSelection(t *testing.T) {
	analysis := hotprefetch.AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := hotprefetch.NewShardedProfileConfig(hotprefetch.ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := hotprefetch.NewConcurrentPredictor("test-dud", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := hotprefetch.Supervise(sp, cm, hotprefetch.SupervisorConfig{
		Predictor:             "test-dud",
		ABTest:                "dfsm",
		ABWindows:             2,
		AccuracyFloor:         0.5,
		BadWindows:            100, // the dud's bad windows must not deoptimize mid-trial
		MinWindowObservations: 64,
		HeadLen:               2,
		Analysis:              analysis,
		MinFreshCycles:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	trace := abTrace(1, 40)
	feedCycle(t, sp, trace, 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != hotprefetch.StateOptimized {
		t.Fatalf("state after banked cycle = %v, want %v", got, hotprefetch.StateOptimized)
	}
	if got := cm.Predictor(); got != "test-dud" {
		t.Fatalf("champion arm runs first: predictor = %q, want %q", got, "test-dud")
	}
	snap := sup.Snapshot()
	if !snap.ABActive || snap.ABChampion != "test-dud" || snap.ABChallenger != "dfsm" {
		t.Fatalf("trial not open as configured: %+v", snap)
	}
	if got := sp.Observer().Count(hotprefetch.EventPredictorTrial); got != 1 {
		t.Fatalf("predictor_trial events = %d, want 1", got)
	}

	// Champion windows: the dud sees traffic, issues nothing, scores 0.
	for poll := 1; poll <= 2; poll++ {
		for _, r := range trace {
			cm.Observe(r)
		}
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// Both champion windows served; the matcher now belongs to the
	// challenger on the same stream set.
	snap = sup.Snapshot()
	if snap.ABChampionWindows != 2 || snap.ABChallengerWindows != 0 {
		t.Fatalf("windows after champion arm = (%d, %d), want (2, 0)",
			snap.ABChampionWindows, snap.ABChallengerWindows)
	}
	if snap.ABChampionAccuracy != 0 {
		t.Fatalf("dud champion accuracy = %g, want 0", snap.ABChampionAccuracy)
	}
	if got := cm.Predictor(); got != "dfsm" {
		t.Fatalf("after champion windows predictor = %q, want challenger %q", got, "dfsm")
	}

	// Challenger windows: the DFSM predicts the repeating stream.
	for poll := 1; poll <= 2; poll++ {
		for _, r := range trace {
			cm.Observe(r)
		}
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	snap = sup.Snapshot()
	if snap.ABActive {
		t.Fatalf("trial still active after both arms served: %+v", snap)
	}
	if snap.ABLastWinner != "dfsm" {
		t.Fatalf("ABLastWinner = %q, want challenger %q", snap.ABLastWinner, "dfsm")
	}
	if snap.ABTrials != 1 || snap.ABAborts != 0 {
		t.Fatalf("trials=%d aborts=%d, want 1, 0", snap.ABTrials, snap.ABAborts)
	}
	if got := cm.Predictor(); got != "dfsm" {
		t.Fatalf("published winner = %q, want %q", got, "dfsm")
	}
	if got := sup.State(); got != hotprefetch.StateOptimized {
		t.Fatalf("state after concluded trial = %v, want %v", got, hotprefetch.StateOptimized)
	}
	if got := sp.Observer().Count(hotprefetch.EventPredictorWinner); got != 1 {
		t.Fatalf("predictor_winner events = %d, want 1", got)
	}

	// Exact window accounting: every issued/hit the trial measured is
	// attributed to exactly one implementation, and the per-predictor
	// ledgers sum to the matcher totals.
	byName := map[string]hotprefetch.PredictorAccuracy{}
	var sumIssued, sumHits uint64
	for _, pa := range cm.AccuracyByPredictor() {
		byName[pa.Name] = pa
		sumIssued += pa.Issued
		sumHits += pa.Hits
	}
	if byName["test-dud"].Issued != 0 {
		t.Fatalf("dud issued %d prefetches, want 0", byName["test-dud"].Issued)
	}
	if byName["dfsm"].Issued == 0 || byName["dfsm"].Hits == 0 {
		t.Fatalf("challenger ledger empty: %+v", byName["dfsm"])
	}
	issued, hits := cm.AccuracyCounters()
	if sumIssued != issued || sumHits != hits {
		t.Fatalf("per-predictor ledgers (%d, %d) do not sum to totals (%d, %d)",
			sumIssued, sumHits, issued, hits)
	}

	// The winner and the split ledgers surface in service stats.
	st := sp.Stats()
	if st.MatcherPredictor != "dfsm" {
		t.Fatalf("Stats.MatcherPredictor = %q, want %q", st.MatcherPredictor, "dfsm")
	}
	if len(st.Predictors) != 2 {
		t.Fatalf("Stats.Predictors has %d entries, want 2: %+v", len(st.Predictors), st.Predictors)
	}
}

// TestSupervisorABChaosPanicDemotes drives an A/B trial into a challenger
// whose factory panics at build time: the supervisor must absorb the panic
// (the loop survives), abort the trial with its ledger cleanly dropped, and
// demote to the pass-through state — then recover by re-optimizing and
// opening a fresh trial once new evidence banks.
func TestSupervisorABChaosPanicDemotes(t *testing.T) {
	analysis := hotprefetch.AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := hotprefetch.NewShardedProfileConfig(hotprefetch.ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := hotprefetch.NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := hotprefetch.Supervise(sp, cm, hotprefetch.SupervisorConfig{
		ABTest:                "test-boom",
		ABWindows:             2,
		AccuracyFloor:         0.25,
		BadWindows:            100,
		MinWindowObservations: 64,
		HeadLen:               2,
		Analysis:              analysis,
		MinFreshCycles:        1,
		// Forced staleness makes every window conclusive-bad, so the trial
		// advances on cadence regardless of real traffic accuracy.
		Fault: &fault.Hooks{MatcherStaleFn: func() bool { return true }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	trace := abTrace(2, 40)
	feedCycle(t, sp, trace, 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if !sup.Snapshot().ABActive {
		t.Fatal("trial did not open at optimization")
	}

	// First champion window: trial ledger advances, nothing detonates yet.
	for _, r := range trace {
		cm.Observe(r)
	}
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	snap := sup.Snapshot()
	if snap.ABChampionWindows != 1 || snap.ABChallengerWindows != 0 {
		t.Fatalf("windows before detonation = (%d, %d), want (1, 0)",
			snap.ABChampionWindows, snap.ABChallengerWindows)
	}

	// Second champion window completes the arm; the hand-off builds the
	// challenger, whose factory panics. The poll itself must not.
	for _, r := range trace {
		cm.Observe(r)
	}
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != hotprefetch.StateHibernating {
		t.Fatalf("state after challenger panic = %v, want %v", got, hotprefetch.StateHibernating)
	}
	if got := cm.NumStates(); got != 1 {
		t.Fatalf("matcher has %d states after demotion, want 1 (pass-through)", got)
	}
	snap = sup.Snapshot()
	if snap.ABActive {
		t.Fatalf("trial still active after abort: %+v", snap)
	}
	if snap.ABAborts != 1 || snap.ABTrials != 0 {
		t.Fatalf("aborts=%d trials=%d, want 1, 0 (aborted, never concluded)",
			snap.ABAborts, snap.ABTrials)
	}
	if snap.ABLastWinner != "" {
		t.Fatalf("ABLastWinner = %q after an aborted trial, want empty", snap.ABLastWinner)
	}
	if snap.PollErrors != 1 {
		t.Fatalf("PollErrors = %d, want 1 (the recovered panic)", snap.PollErrors)
	}
	if snap.Deoptimizations != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", snap.Deoptimizations)
	}
	if got := sp.Observer().Count(hotprefetch.EventPredictorWinner); got != 0 {
		t.Fatalf("predictor_winner events = %d after abort, want 0", got)
	}

	// No fresh evidence: hibernation holds.
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != hotprefetch.StateHibernating {
		t.Fatalf("state without fresh cycles = %v, want %v", got, hotprefetch.StateHibernating)
	}

	// Fresh evidence re-optimizes and opens a new trial; the crash cost the
	// process one trial, not the supervision loop.
	feedCycle(t, sp, trace, sp.Stats().Resets)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != hotprefetch.StateOptimized {
		t.Fatalf("state after recovery cycle = %v, want %v", got, hotprefetch.StateOptimized)
	}
	snap = sup.Snapshot()
	if !snap.ABActive || snap.ABAborts != 1 {
		t.Fatalf("recovery did not reopen a trial: %+v", snap)
	}
	if got := sp.Observer().Count(hotprefetch.EventPredictorTrial); got != 2 {
		t.Fatalf("predictor_trial events = %d, want 2 (original + reopened)", got)
	}
}
