package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/cfq"
)

func prepareResp(t *testing.T, body []byte) *PrepareResponse {
	t.Helper()
	var resp PrepareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad prepare response: %v\n%s", err, body)
	}
	return &resp
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Error == nil {
		t.Fatalf("bad error response: %v\n%s", err, body)
	}
	return resp.Error.Code
}

// TestPrepareRoundTrip: POST /v1/prepare compiles once and issues a handle;
// re-preparing the same canonical query is a cache hit with the same handle;
// executing the handle answers exactly what a direct engine run answers.
func TestPrepareRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)
	if prep.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", prep.Schema, SchemaVersion)
	}
	if len(prep.Handle) != 17 || prep.Handle[0] != 'p' {
		t.Errorf("handle %q, want p + 16 hex chars", prep.Handle)
	}
	if prep.Strategy != "optimized" {
		t.Errorf("auto prepared as %q, want optimized", prep.Strategy)
	}
	if prep.Cached {
		t.Error("first prepare claims cached")
	}

	// Idempotent re-prepare: same canonical query, same generation ⇒ same
	// handle, served from the plan cache.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("re-prepare: status %d: %s", status, body)
	}
	again := prepareResp(t, body)
	if !again.Cached {
		t.Error("re-prepare not served from plan cache")
	}
	if again.Handle != prep.Handle {
		t.Errorf("handle changed across identical prepares: %q vs %q", again.Handle, prep.Handle)
	}

	// Execute by handle.
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusOK {
		t.Fatalf("prepared query: status %d: %s", status, body)
	}
	resp := queryResp(t, body)
	if resp.Strategy != prep.Strategy {
		t.Errorf("prepared execution strategy %q, want %q", resp.Strategy, prep.Strategy)
	}
	if resp.Dataset != "market" {
		t.Errorf("dataset %q, want market", resp.Dataset)
	}
	var res QueryResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	direct, err := cfq.ParseQuery(marketDataset(t), readmeQueryText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Run(cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairCount != want.PairCount {
		t.Errorf("prepared answer %d pairs, engine %d", res.PairCount, want.PairCount)
	}
}

// TestPreparedErrors: the handle path's failure modes are structured — a
// handle is exclusive with inline query text, unknown handles are 404s, and
// /v1/explain does not accept handles.
func TestPreparedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Prepared: "pdeadbeefdeadbeef", Query: readmeQueryText})
	if status != http.StatusBadRequest {
		t.Fatalf("prepared+query: status %d, want 400: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: "pdeadbeefdeadbeef"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown handle: status %d, want 404: %s", status, body)
	}
	if code := errorCode(t, body); code != CodeUnknownPrepared {
		t.Errorf("unknown handle code %q, want %q", code, CodeUnknownPrepared)
	}

	// Prepare a real handle, then misuse it.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)

	status, body = postJSON(t, ts.URL+"/v1/explain", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusBadRequest {
		t.Fatalf("explain by handle: status %d, want 400: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Prepared: prep.Handle, Dataset: "other"})
	if status != http.StatusBadRequest {
		t.Fatalf("wrong dataset: status %d, want 400: %s", status, body)
	}
}

// TestPreparedStaleGeneration is the interleave contract: prepare, mutate,
// execute ⇒ the stale handle is refused with a structured 409 (the same
// generation bump that retires the result cache retires the plan), and a
// fresh prepare against the new generation issues a different handle.
func TestPreparedStaleGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)

	status, body = postJSON(t, ts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{0, 3}}})
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusConflict {
		t.Fatalf("stale handle: status %d, want 409: %s", status, body)
	}
	if code := errorCode(t, body); code != CodeStaleGeneration {
		t.Errorf("stale handle code %q, want %q", code, CodeStaleGeneration)
	}

	// Stale handles are evicted eagerly: the same handle is now unknown.
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusNotFound {
		t.Fatalf("evicted handle: status %d, want 404: %s", status, body)
	}

	// Re-preparing against the new generation works and issues a new handle.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("re-prepare: status %d: %s", status, body)
	}
	fresh := prepareResp(t, body)
	if fresh.Handle == prep.Handle {
		t.Error("handle did not change across a generation bump")
	}
	if fresh.Cached {
		t.Error("post-mutation prepare claims cached")
	}
	if status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: fresh.Handle}); status != http.StatusOK {
		t.Fatalf("fresh handle: status %d: %s", status, body)
	}
}

// TestPrepareDisabled: a server with the plan cache disabled refuses
// /v1/prepare with a structured 422 but still serves strategy auto inline.
func TestPrepareDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{PlanCacheEntries: -1, PlanCacheBytes: -1})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("prepare on disabled cache: status %d, want 422: %s", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("auto query on disabled cache: status %d: %s", status, body)
	}
}

// TestAutoUnconstrainedRunsOptimized: an unconstrained query sent with
// strategy auto runs the optimized plan — the same work counters as a
// direct optimized run, not a generate-and-test baseline.
func TestAutoUnconstrainedRunsOptimized(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const text = "{(S,T) | freq(S) & freq(T)}"
	status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: text, MinSupport: 2, Strategy: "auto",
		NoSession: true, MaxPairs: 1000,
	})
	if status != http.StatusOK {
		t.Fatalf("auto query: status %d: %s", status, body)
	}
	resp := queryResp(t, body)
	if resp.Strategy != "optimized" {
		t.Errorf("envelope strategy %q, want optimized", resp.Strategy)
	}
	var got QueryResult
	if err := json.Unmarshal(resp.Result, &got); err != nil {
		t.Fatal(err)
	}
	q, err := cfq.ParseQuery(marketDataset(t), text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.MinSupport(2).MaxPairs(1000).Run(cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if got.PairCount != want.PairCount || got.Stats != want.Stats {
		t.Errorf("auto ran %d pairs with %+v, optimized %d pairs with %+v",
			got.PairCount, got.Stats, want.PairCount, want.Stats)
	}
}

// TestStatzPlanCache: /statz exposes the plan cache occupancy.
func TestStatzPlanCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/prepare",
		&QueryRequest{Dataset: "market", Query: readmeQueryText}); status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var statz struct {
		PlanCache map[string]int64 `json:"plan_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.PlanCache["entries"] != 1 || statz.PlanCache["misses"] != 1 {
		t.Errorf("plan cache after one prepare: %+v", statz.PlanCache)
	}
}
