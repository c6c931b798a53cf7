package cfq

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func autoQuery(ds *Dataset) *Query {
	return NewQuery(ds).
		MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price"))
}

// TestAutoMatchesOptimized: strategy auto, the alias of optimized, answers
// exactly what optimized answers.
func TestAutoMatchesOptimized(t *testing.T) {
	ds := marketDataset(t)
	want, err := autoQuery(ds).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	got, err := autoQuery(ds).Run(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got.PairCount != want.PairCount {
		t.Fatalf("auto pair count %d, optimized %d", got.PairCount, want.PairCount)
	}
	gk, wk := pairKeys(got), pairKeys(want)
	if strings.Join(gk, ";") != strings.Join(wk, ";") {
		t.Fatalf("auto pairs %v, optimized pairs %v", gk, wk)
	}
}

// TestPreparedReuse: one Prepare, many Runs — the query is compiled once
// and every execution replays it with identical answers.
func TestPreparedReuse(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() != Optimized {
		t.Fatalf("auto prepared as %v, want optimized", p.Strategy())
	}
	first, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.PairCount != second.PairCount ||
		strings.Join(pairKeys(first), ";") != strings.Join(pairKeys(second), ";") {
		t.Fatal("repeated runs of one prepared plan disagree")
	}
}

// TestPreparedFixedStrategy: a prepared plan runs the strategy it was
// prepared with.
func TestPreparedFixedStrategy(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() != Sequential {
		t.Fatalf("strategy = %v, want sequential", p.Strategy())
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSnapshotStable: a prepared plan answers over the snapshot it
// captured — mutations after Prepare do not bleed into its answer.
// (Staleness rejection is the handle holder's job; the server's plan cache
// returns a structured stale_generation error instead of re-running.)
func TestPreparedSnapshotStable(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTransactions([][]int{{0, 3}, {0, 3}, {0, 3}, {0, 3}}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if after.PairCount != before.PairCount {
		t.Fatalf("prepared plan saw the mutation: %d pairs, want %d", after.PairCount, before.PairCount)
	}
	// A fresh run over the mutated dataset does see the new transactions.
	fresh, err := autoQuery(ds).Run(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PairCount == before.PairCount {
		t.Skip("mutation did not change the answer; snapshot test is vacuous")
	}
}

// TestAutoExplainMatchesOptimized: EXPLAIN under auto is the optimized
// plan, field for field.
func TestAutoExplainMatchesOptimized(t *testing.T) {
	ds := marketDataset(t)
	rep, err := autoQuery(ds).ExplainQuery(Auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := autoQuery(ds).ExplainQuery(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Fatalf("auto EXPLAIN\n%s\ndiffers from optimized\n%s", got, wantJSON)
	}
}

// TestAutoExplainAnalyze: EXPLAIN ANALYZE under auto reports the optimized
// strategy and keeps the pruning-attribution sum.
func TestAutoExplainAnalyze(t *testing.T) {
	ds := marketDataset(t)
	res, rep, err := autoQuery(ds).ExplainAnalyze(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "optimized" {
		t.Fatalf("analyzed auto report strategy = %q, want optimized", rep.Strategy)
	}
	if !rep.Analyzed {
		t.Fatal("report not marked analyzed")
	}
	if got, want := rep.SumPruned(), res.Stats.CandidatesPruned; got != want {
		t.Fatalf("attributed pruning %d != stats pruned %d", got, want)
	}
}

// TestSessionPrepare: a session-prepared handle executes through the
// session cache and agrees with the engine.
func TestSessionPrepare(t *testing.T) {
	ds := marketDataset(t)
	want, err := autoQuery(ds).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(ds)
	p, err := s.Prepare(autoQuery(ds))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pairKeys(got), ";") != strings.Join(pairKeys(want), ";") {
		t.Fatal("session-prepared answer disagrees with engine answer")
	}
	// Wrong-dataset queries are rejected at Prepare, like Session.Run.
	other := marketDataset(t)
	if _, err := s.Prepare(autoQuery(other)); err == nil {
		t.Fatal("session prepared a query from another dataset")
	}
}

// TestAutoTraceSpan: a traced auto run, inline or through a prepared
// handle, records exactly the span tree an optimized run records — no
// planning span, since auto names the optimized plan rather than choosing
// one.
func TestAutoTraceSpan(t *testing.T) {
	ds := marketDataset(t)
	spans := func(run func(context.Context) (*Result, error)) []string {
		t.Helper()
		res, err := run(WithTracer(context.Background(), NewTracer(TracerOptions{Name: "test"})))
		if err != nil {
			t.Fatal(err)
		}
		if res.Report == nil {
			t.Fatal("traced run has no report")
		}
		var names []string
		res.Report.Walk(func(s *SpanReport) { names = append(names, s.Name) })
		return names
	}
	want := spans(func(ctx context.Context) (*Result, error) { return autoQuery(ds).RunContext(ctx, Optimized) })
	inline := spans(func(ctx context.Context) (*Result, error) { return autoQuery(ds).RunContext(ctx, Auto) })
	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	prepared := spans(p.RunContext)
	for _, got := range [][]string{inline, prepared} {
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("auto spans %v, optimized spans %v", got, want)
		}
		for _, name := range got {
			if strings.HasPrefix(name, "plan:") {
				t.Errorf("auto run recorded a planning span %q", name)
			}
		}
	}
}

// TestParseStrategyAuto: the auto spelling names the optimized strategy.
func TestParseStrategyAuto(t *testing.T) {
	s, err := ParseStrategy("auto")
	if err != nil || s != Optimized {
		t.Fatalf("ParseStrategy(auto) = %v, %v", s, err)
	}
	if Auto.String() != "optimized" {
		t.Fatalf("Auto.String() = %q", Auto.String())
	}
}
