package plan_test

import (
	"context"
	"testing"

	"repro/cfq"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mine"
	"repro/internal/plan"
)

// engineStrategy resolves a wire strategy name the way a request does: the
// public spelling through cfq.ParseStrategy, then the engine spelling
// through the name table.
func engineStrategy(t *testing.T, wire string) core.Strategy {
	t.Helper()
	s, err := cfq.ParseStrategy(wire)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.ParseStrategy(plan.CoreName(s.String()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBenchPointChoices grounds the fixed plan against the committed fig8a
// and fig8b bench points (scale 25, seed 1, as in BENCH.json): strategy
// auto resolves to the paper's optimizer, which support-counts no more
// candidates than any other strategy at any point and returns the same
// answer. The work counter is deterministic, so this pins the choice
// without timing anything.
func TestBenchPointChoices(t *testing.T) {
	if got := engineStrategy(t, "auto"); got != core.StrategyOptimized {
		t.Fatalf("auto resolves to %v, want %v", got, core.StrategyOptimized)
	}
	cfg := exp.Config{Scale: 25, Seed: 1}
	alts := []string{plan.NoJmax, plan.CAP, plan.Apriori, plan.Sequential}
	points := []struct {
		name  string
		query func(exp.Config) (core.CFQ, error)
	}{
		{"fig8a-overlap-33", func(c exp.Config) (core.CFQ, error) { return exp.Fig8aQuery(c, 400, 600) }},
		{"fig8a-overlap-83", func(c exp.Config) (core.CFQ, error) { return exp.Fig8aQuery(c, 400, 900) }},
		{"fig8b-overlap-40", func(c exp.Config) (core.CFQ, error) { return exp.Fig8bQuery(c, 400, 600, 40) }},
		{"fig8b-overlap-80", func(c exp.Config) (core.CFQ, error) { return exp.Fig8bQuery(c, 400, 600, 80) }},
	}
	for _, pt := range points {
		q, err := pt.query(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chosen, err := core.Run(context.Background(), q, engineStrategy(t, "auto"))
		if err != nil {
			t.Fatal(err)
		}
		if chosen.PairCount == 0 {
			t.Fatalf("%s: empty answer", pt.name)
		}
		for _, alt := range alts {
			res, err := core.Run(context.Background(), q, engineStrategy(t, alt))
			if err != nil {
				t.Fatal(err)
			}
			if res.PairCount != chosen.PairCount {
				t.Errorf("%s: %s answers %d pairs, auto %d", pt.name, alt, res.PairCount, chosen.PairCount)
			}
			if res.Stats.CandidatesCounted < chosen.Stats.CandidatesCounted {
				t.Errorf("%s: %s counted %d candidates, fewer than auto's %d",
					pt.name, alt, res.Stats.CandidatesCounted, chosen.Stats.CandidatesCounted)
			}
			t.Logf("%s: auto counted %d, %s counted %d", pt.name,
				chosen.Stats.CandidatesCounted, alt, res.Stats.CandidatesCounted)
		}
	}
}

// TestUnconstrainedMiner: a query with no constraints at all — the case
// the deleted planner sent to a generate-and-test plan on the FP-growth
// miner — runs the optimized plan on levelwise mining under auto, with
// the work counters and answer of a direct optimized run.
func TestUnconstrainedMiner(t *testing.T) {
	cfg := exp.Config{Scale: 25, Seed: 1}
	db, err := cfg.QuestDB()
	if err != nil {
		t.Fatal(err)
	}
	// freq >= 100 keeps the unconstrained answer small enough to count in
	// a unit test; the shape of the query is what matters here.
	q := core.CFQ{DB: db, MinSupportS: 100, MinSupportT: 100, MaxPairs: 16}
	got, err := core.Run(context.Background(), q, engineStrategy(t, "auto"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(context.Background(), q, core.StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if got.PairCount == 0 || got.PairCount != want.PairCount || got.Stats != want.Stats {
		t.Errorf("auto: %d pairs, %+v; optimized: %d pairs, %+v",
			got.PairCount, got.Stats, want.PairCount, want.Stats)
	}
	// Levelwise mining: the frequent sets are exactly what the levelwise
	// miner finds on its own, for S and T alike.
	var lw mine.Stats
	levels, err := mine.AllFrequent(context.Background(), db, 100, nil, nil, &lw)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range levels {
		n += len(l)
	}
	if got.Stats.CandidatesCounted != 2*lw.CandidatesCounted {
		t.Errorf("auto counted %d candidates, want twice levelwise's %d (once per variable)",
			got.Stats.CandidatesCounted, lw.CandidatesCounted)
	}
	t.Logf("auto: %+v; levelwise alone: %d sets, %+v", got.Stats, n, lw)
}

// TestFallback: a request that names no strategy falls back to the default
// plan — the same engine strategy auto names — and an unknown name is an
// error at the public parser and at the engine, never a silent default.
func TestFallback(t *testing.T) {
	if got := engineStrategy(t, ""); got != core.StrategyOptimized {
		t.Errorf("empty strategy resolves to %v, want %v", got, core.StrategyOptimized)
	}
	if engineStrategy(t, "") != engineStrategy(t, "auto") {
		t.Error("default and auto resolve differently")
	}
	if _, err := cfq.ParseStrategy("cost-based"); err == nil {
		t.Error("cfq.ParseStrategy accepted an unknown name")
	}
	if _, err := core.ParseStrategy(plan.CoreName("cost-based")); err == nil {
		t.Error("core.ParseStrategy accepted an unknown name")
	}
}
