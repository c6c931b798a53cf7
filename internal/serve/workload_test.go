package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/cfq"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/obs/workload"
)

func getWorkload(t *testing.T, base string) *WorkloadResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/workload")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/workload: status %d", resp.StatusCode)
	}
	var wl WorkloadResponse
	decodeInto(t, resp, &wl)
	return &wl
}

// TestWorkloadJournalContract: with the journal on, every completed query
// request — cached ones included — lands in the journal with its
// classification, feature vector, phase deltas, and per-site pruning counts
// that sum exactly to CandidatesPruned; non-query endpoints and requests
// that never built a query stay out.
func TestWorkloadJournalContract(t *testing.T) {
	s, ts := newTestServer(t, Config{Workload: true})

	q := &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}
	for i := 0; i < 2; i++ { // second run is a result-cache hit
		status, body := postJSON(t, ts.URL+"/v1/query", q)
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, body)
		}
	}
	// A parse failure builds no query: journaled nowhere.
	if status, _ := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "market", Query: "{bogus"}); status != http.StatusBadRequest {
		t.Fatalf("bogus query: status %d", status)
	}
	// Explain is a different endpoint: not part of the workload journal.
	if status, _ := postJSON(t, ts.URL+"/v1/explain", q); status != http.StatusOK {
		t.Fatal("explain failed")
	}

	recs := s.workload.journal.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(recs))
	}
	cached := 0
	for _, rec := range recs {
		if rec.Kind != workload.KindQuery || rec.Schema != workload.RecordSchema {
			t.Errorf("record kind/schema = %s/%d", rec.Kind, rec.Schema)
		}
		if rec.Class == "" || rec.Class == "unconstrained" {
			t.Errorf("class = %q, want a constraint classification", rec.Class)
		}
		if rec.Features == nil || rec.Features.Transactions != 8 {
			t.Errorf("features = %+v", rec.Features)
		}
		if len(rec.EnforcedAt) == 0 {
			t.Error("no enforcement sites")
		}
		if rec.Strategy != "session" || rec.Status != http.StatusOK {
			t.Errorf("strategy/status = %s/%d", rec.Strategy, rec.Status)
		}
		if rec.QueryHash == "" || len(rec.Phases) == 0 {
			t.Errorf("hash %q phases %v", rec.QueryHash, rec.Phases)
		}
		var sum int64
		for _, n := range rec.PruneSites {
			sum += n
		}
		if sum != rec.CandidatesPruned {
			t.Errorf("prune sites sum %d != candidates_pruned %d (%v)",
				sum, rec.CandidatesPruned, rec.PruneSites)
		}
		if rec.Cached {
			cached++
			if rec.CandidatesPruned != 0 {
				t.Error("cached record claims pruning work")
			}
		} else if rec.CandidatesPruned == 0 {
			t.Error("uncached run pruned nothing — constraint push-down not attributed")
		}
	}
	if cached != 1 {
		t.Errorf("cached records = %d, want 1", cached)
	}

	wl := getWorkload(t, ts.URL)
	if !wl.Enabled || wl.Schema != SchemaVersion || wl.Journal == nil {
		t.Fatalf("workload envelope = %+v", wl)
	}
	if wl.Journal.Appended != 2 || len(wl.Classes) != 1 {
		t.Fatalf("journal state %+v classes %+v", wl.Journal, wl.Classes)
	}
	cr := wl.Classes[0]
	if cr.Count != 2 || cr.Cached != 1 || cr.Strategies["session"] != 2 {
		t.Errorf("rollup = %+v", cr)
	}

	// /statz carries the journal state.
	ops := httptest.NewServer(s.OpsHandler())
	defer ops.Close()
	resp, err := http.Get(ops.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	decodeInto(t, resp, &doc)
	sect, ok := doc["workload"].(map[string]any)
	if !ok || sect["enabled"] != true {
		t.Errorf("statz workload section = %v", doc["workload"])
	}
}

func TestWorkloadDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	if s.workload != nil {
		t.Fatal("collector built without config")
	}
	if wl := getWorkload(t, ts.URL); wl.Enabled || wl.Journal != nil || len(wl.Classes) != 0 {
		t.Errorf("workload envelope = %+v", wl)
	}
}

// TestFig8aRegretInversion reproduces the committed BENCH.json strategy gap
// through the served engine path (no_session): on the Figure 8(a)
// 33%-overlap point the published CAP baseline (1-var pushdown only, "cap"
// on the wire, "cap-1var" in BENCH.json) does an order of magnitude more
// counting than the optimized 2-var plan for the same answer. The work
// ratio is pinned exactly; the wall ratio, min-of-2 per strategy, with a
// conservative margin. (BENCH.json also records a nojmax-vs-optimized
// micro-inversion at this point; on current builds those two strategies are
// within scheduling noise of each other, so the assertion pins the robust
// cap gap instead — see EXPERIMENTS.md.)
func TestFig8aRegretInversion(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8a workload is seconds-scale; skipped under -short")
	}
	// Same scale/seed as BENCH.json (scale 25 = 4000 transactions over 1000
	// items, minsup 1% = 40).
	cfg := exp.Config{Scale: 25, Seed: 1}
	db, err := cfg.QuestDB()
	if err != nil {
		t.Fatal(err)
	}
	txs := make([][]int, db.Len())
	for i := 0; i < db.Len(); i++ {
		set := db.Transaction(i)
		tx := make([]int, 0, set.Len())
		for _, it := range set {
			tx = append(tx, int(it))
		}
		txs[i] = tx
	}
	prices := gen.UniformPrices(1000, 0, 1000, cfg.Seed+101)

	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := &DatasetSpec{Name: "fig8a", Items: 1000, Transactions: txs,
		Numeric: map[string][]float64{"Price": prices}}
	if status, body := postJSON(t, ts.URL+"/v1/datasets", spec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}

	// The fig8a-overlap-33 point as wire CFQ text: S over [400, 1000]-priced
	// items, T over [0, 600], quasi-succinct max<=min across them. Every
	// pair is materialized so the two answers can be compared whole.
	query := "{(S,T) | freq(S) >= 40 & freq(T) >= 40 & range(S.Price, 400, 1000) & range(T.Price, 0, 600) & max(S.Price) <= min(T.Price)}"
	ds, _, _, err := s.reg.Lookup("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	// The answer and its work counters come through the served engine path.
	answer := func(strategy string) QueryResult {
		status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
			Dataset: "fig8a", Query: query, Strategy: strategy,
			NoSession: true, NoCache: true, MaxPairs: 1 << 20,
		})
		if status != http.StatusOK {
			t.Fatalf("%s query: status %d: %s", strategy, status, body)
		}
		resp := queryResp(t, body)
		if resp.Strategy != strategy {
			t.Fatalf("envelope strategy %q, want %q", resp.Strategy, strategy)
		}
		var res QueryResult
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	capRes, optRes := answer("cap"), answer("optimized")

	// The wall is the evaluation a no_session request runs, without the
	// HTTP round trip and the encoding of every pair, which cost the same
	// for both strategies. Runs alternate between the strategies, each
	// after a collection, so both see the same machine.
	q, err := cfq.ParseQuery(ds, query)
	if err != nil {
		t.Fatal(err)
	}
	q.MaxPairs(1 << 20)
	wall := func(strat cfq.Strategy) float64 {
		runtime.GC()
		start := time.Now()
		if _, err := q.Run(strat); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start)) / float64(time.Millisecond)
	}
	capMS, optMS := math.Inf(1), math.Inf(1)
	for i := 0; i < 2; i++ {
		capMS = math.Min(capMS, wall(cfq.CAPOnly))
		optMS = math.Min(optMS, wall(cfq.Optimized))
	}

	if capRes.PairCount != optRes.PairCount || optRes.PairCount == 0 {
		t.Fatalf("PairCount: cap %d, optimized %d", capRes.PairCount, optRes.PairCount)
	}
	if got, want := pairSet(capRes.Pairs), pairSet(optRes.Pairs); got != want {
		t.Fatal("cap and optimized return different pairs")
	}
	// The work ratio is deterministic for this dataset: 12,852 candidates
	// counted under cap against 1,273 under optimized.
	capWork, optWork := capRes.Stats.CandidatesCounted, optRes.Stats.CandidatesCounted
	if capWork < 5*optWork {
		t.Errorf("work gap not reproduced: cap counted %d candidates vs optimized %d (want >= 5x)", capWork, optWork)
	}
	// The wall gap measured ~4.6x; even on a loaded single-core box the
	// ordering and a conservative 3x margin are far outside scheduling
	// noise. Min-of-k wall is the noise-robust estimate (delays only ever
	// inflate a run).
	if capMS < 3*optMS {
		t.Errorf("BENCH.json gap not reproduced: cap min %.3fms vs optimized min %.3fms (want >= 3x)",
			capMS, optMS)
	}
	t.Logf("fig8a-overlap-33: cap min %.2fms, %d counted; optimized min %.2fms, %d counted; %d pairs",
		capMS, capWork, optMS, optWork, optRes.PairCount)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// pairSet renders an answer's pairs in a canonical order, so two strategies'
// answers compare as sets.
func pairSet(pairs []cfq.Pair) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = fmt.Sprint(p.S.Items, p.S.Support, p.T.Items, p.T.Support)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestQueueWaitHistogram: the admission queue-wait histogram is labeled by
// endpoint and sees every query request, including uncontended ones.
func TestQueueWaitHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := queueWaitCount(t, kindQuery)
	if status, _ := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}); status != http.StatusOK {
		t.Fatalf("query failed: %d", status)
	}
	if after := queueWaitCount(t, kindQuery); after != before+1 {
		t.Errorf("queue-wait observations %d -> %d, want +1", before, after)
	}
}

func queueWaitCount(t *testing.T, endpoint string) int64 {
	t.Helper()
	return mQueueWait.WithLabels(endpoint).Snapshot().Count
}
