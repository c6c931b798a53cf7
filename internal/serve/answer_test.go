package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/cfq"
)

// directResult evaluates req on a reference copy of the market dataset
// (plus extra transactions) through the one-shot engine, applying the
// request's min_support or min_support_frac and max_pairs as the server
// does.
func directResult(t *testing.T, req *QueryRequest, extra [][]int) *cfq.Result {
	t.Helper()
	ds := marketDataset(t)
	if err := ds.AddTransactions(extra); err != nil {
		t.Fatal(err)
	}
	q, err := cfq.ParseQuery(ds, req.Query)
	if err != nil {
		t.Fatal(err)
	}
	def := cfq.NewQuery(ds)
	if req.MinSupport > 0 {
		def.MinSupport(req.MinSupport)
	} else {
		def.MinSupportFraction(req.MinSupportFrac)
	}
	q.ApplyDefaultSupports(def)
	res, err := q.MaxPairs(req.MaxPairs).RunContext(context.Background(), cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// answerDiff describes how a served result document differs from a direct
// evaluation's answer: pairs in order, the pair count, and the number of
// valid sets per side and level. Empty means equal.
func answerDiff(raw json.RawMessage, want *cfq.Result) string {
	var got QueryResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return err.Error()
	}
	if got.PairCount != want.PairCount {
		return fmt.Sprintf("PairCount %d, want %d", got.PairCount, want.PairCount)
	}
	gotPairs, _ := json.Marshal(got.Pairs)
	wantPairs, _ := json.Marshal(want.Pairs)
	if len(want.Pairs) == 0 {
		wantPairs = []byte("[]")
	}
	if !bytes.Equal(gotPairs, wantPairs) {
		return fmt.Sprintf("pairs %s, want %s", gotPairs, wantPairs)
	}
	for side, c := range map[string]struct {
		got  []int
		want [][]cfq.FrequentSet
	}{"S": {got.LevelCountsS, want.LevelsS}, "T": {got.LevelCountsT, want.LevelsT}} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s: %d levels, want %d", side, len(c.got), len(c.want))
		}
		for k := range c.want {
			if c.got[k] != len(c.want[k]) {
				return fmt.Sprintf("%s: level %d has %d sets, want %d", side, k+1, c.got[k], len(c.want[k]))
			}
		}
	}
	return ""
}

// TestServedPathsAgree: every way cfqd can produce a /v1/query answer
// serves the same document a direct Query.RunContext(Optimized) computes —
// the same pairs in the same order (truncated to max_pairs), the same
// PairCount, and per-level valid-set counts equal to the direct run's
// level sizes.
func TestServedPathsAgree(t *testing.T) {
	base := QueryRequest{Dataset: "market", Query: readmeQueryText, MaxPairs: 5}
	appended := [][]int{{0, 3}, {1, 4}, {0, 1, 5}}
	query := func(t *testing.T, url string, req QueryRequest) *QueryResponse {
		t.Helper()
		status, body := postJSON(t, url+"/v1/query", &req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		return queryResp(t, body)
	}
	cases := []struct {
		name  string
		extra [][]int // transactions appended before the served answer
		serve func(t *testing.T, s *Server, url string) *QueryResponse
		check func(*QueryResponse) bool
	}{
		{"session", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			return query(t, url, base)
		}, func(r *QueryResponse) bool { return r.Strategy == "session" && !r.Cached }},
		{"no_session", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			req := base
			req.NoSession = true
			return query(t, url, req)
		}, func(r *QueryResponse) bool { return r.Strategy == "optimized" }},
		{"auto", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			req := base
			req.Strategy = "auto"
			return query(t, url, req)
		}, func(r *QueryResponse) bool { return r.Strategy == "session" && !r.Cached }},
		{"auto_no_session", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			req := base
			req.Strategy = "auto"
			req.NoSession = true
			return query(t, url, req)
		}, func(r *QueryResponse) bool { return r.Strategy == "optimized" }},
		{"prepared", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			req := base
			req.Strategy = "auto"
			status, body := postJSON(t, url+"/v1/prepare", &req)
			if status != http.StatusOK {
				t.Fatalf("prepare: status %d: %s", status, body)
			}
			return query(t, url, QueryRequest{Prepared: prepareResp(t, body).Handle})
		}, func(r *QueryResponse) bool { return r.Strategy == "optimized" }},
		{"cache_hit", nil, func(t *testing.T, _ *Server, url string) *QueryResponse {
			query(t, url, base)
			return query(t, url, base)
		}, func(r *QueryResponse) bool { return r.Cached }},
		{"collapsed", nil, func(t *testing.T, s *Server, url string) *QueryResponse {
			// Hold the only worker slot so the leader parks in admission
			// while a follower joins its flight.
			if err := s.adm.acquire(context.Background(), prioInteractive, 0); err != nil {
				t.Fatal(err)
			}
			replies := make(chan *QueryResponse, 2)
			body, _ := json.Marshal(&base)
			fire := func() {
				var qr *QueryResponse
				defer func() { replies <- qr }()
				resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					t.Error(err)
				}
			}
			go fire()
			deadline := time.Now().Add(5 * time.Second)
			for (s.adm.state().Queued < 1 || s.flights.inflight() < 1) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			go fire()
			time.Sleep(50 * time.Millisecond)
			s.adm.release(0)
			a, b := <-replies, <-replies
			if a == nil || b == nil {
				t.FailNow()
			}
			if b.Collapsed {
				return b
			}
			return a
		}, func(r *QueryResponse) bool { return r.Collapsed }},
		{"after_append", appended, func(t *testing.T, _ *Server, url string) *QueryResponse {
			query(t, url, base) // caches the generation-1 answer
			status, body := postJSON(t, url+"/v1/datasets/market/transactions",
				&MutateRequest{Transactions: appended})
			if status != http.StatusOK {
				t.Fatalf("mutate: status %d: %s", status, body)
			}
			return query(t, url, base)
		}, func(r *QueryResponse) bool { return r.Generation == 2 && !r.Cached }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, QueueWait: 5 * time.Second})
			resp := c.serve(t, s, ts.URL)
			if !c.check(resp) {
				t.Fatalf("response did not take the %s path: %+v", c.name, resp)
			}
			want := directResult(t, &base, c.extra)
			if want.PairCount <= int64(base.MaxPairs) {
				t.Fatalf("reference has %d pairs; the case needs more than max_pairs %d", want.PairCount, base.MaxPairs)
			}
			if d := answerDiff(resp.Result, want); d != "" {
				t.Error(d)
			}
		})
	}
}

// denseSpec is a dataset whose frequent lattice is large on both sides:
// 10 items, each in ~85% of 80 transactions.
func denseSpec(name string) *DatasetSpec {
	rng := rand.New(rand.NewSource(3))
	spec := &DatasetSpec{Name: name, Items: 10, Numeric: map[string][]float64{"Price": make([]float64, 10)}}
	for i := range spec.Numeric["Price"] {
		spec.Numeric["Price"][i] = float64(i + 1)
	}
	for n := 0; n < 80; n++ {
		var tx []int
		for it := 0; it < 10; it++ {
			if rng.Float64() < 0.85 {
				tx = append(tx, it)
			}
		}
		spec.Transactions = append(spec.Transactions, tx)
	}
	return spec
}

// TestResultBodyBounded: on a dense dataset, the response body and the
// result-cache bytes a query adds follow min(PairCount, max_pairs) — they
// stay within a fixed overhead of the encoded pairs themselves, while the
// per-side valid-set lists the document leaves out are many times larger.
func TestResultBodyBounded(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := denseSpec("dense")
	if status, body := postJSON(t, ts.URL+"/v1/datasets", spec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	const text = "{(S,T) | freq(S) >= 20 & freq(T) >= 20 & max(S.Price) <= min(T.Price)}"
	const overhead = 2048 // envelope, Stats, Plan, level counts, cache key

	ds := cfq.NewDataset(spec.Items)
	if err := ds.AddTransactions(spec.Transactions); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetNumeric("Price", spec.Numeric["Price"]); err != nil {
		t.Fatal(err)
	}
	q, err := cfq.ParseQuery(ds, text)
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.MaxPairs(1).RunContext(context.Background(), cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := json.Marshal([]any{full.ValidS, full.ValidT, full.LevelsS, full.LevelsT})
	if err != nil {
		t.Fatal(err)
	}
	if len(lattice) < 16*overhead || full.PairCount < 1000 {
		t.Fatalf("dataset not dense enough: set lists %d bytes, %d pairs", len(lattice), full.PairCount)
	}

	var bodies []int
	for _, maxPairs := range []int{1, 1000} {
		// The gauge is set from this server's cache on every store.
		before := s.cache.stats()["bytes"]
		status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "dense", Query: text, MaxPairs: maxPairs})
		if status != http.StatusOK {
			t.Fatalf("max_pairs %d: status %d: %s", maxPairs, status, body)
		}
		cacheDelta := mResultBytes.Value() - before
		var res QueryResult
		if err := json.Unmarshal(queryResp(t, body).Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != maxPairs || res.PairCount != full.PairCount {
			t.Fatalf("max_pairs %d: got %d pairs of %d, want %d of %d",
				maxPairs, len(res.Pairs), res.PairCount, maxPairs, full.PairCount)
		}
		pairs, err := json.Marshal(res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > len(pairs)+overhead {
			t.Errorf("max_pairs %d: body %d bytes for %d bytes of pairs (set lists would add %d)",
				maxPairs, len(body), len(pairs), len(lattice))
		}
		if cacheDelta < int64(len(pairs)) || cacheDelta > int64(len(pairs)+overhead) {
			t.Errorf("max_pairs %d: result cache grew %d bytes for %d bytes of pairs",
				maxPairs, cacheDelta, len(pairs))
		}
		bodies = append(bodies, len(body))
	}
	if bodies[1] <= bodies[0] {
		t.Errorf("body did not grow with max_pairs: %v", bodies)
	}
}

// TestAppendLabelsGeneration (run it under -race): queries served while
// appends land each carry the generation whose data they answered from.
// Every 200 answer — session, one-shot engine, cached, and thresholds
// derived from the transaction count — must equal a direct evaluation at
// its labelled generation.
func TestAppendLabelsGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64, QueueWait: 10 * time.Second})
	rng := rand.New(rand.NewSource(5))
	batches := make([][][]int, 30)
	for b := range batches {
		for n := 0; n < 2; n++ {
			batches[b] = append(batches[b], rng.Perm(6)[:2+rng.Intn(3)])
		}
	}
	variants := []QueryRequest{
		{Dataset: "market", Query: readmeQueryText, MaxPairs: 5},
		{Dataset: "market", Query: readmeQueryText, MaxPairs: 5, NoSession: true},
		{Dataset: "market", MaxPairs: 5, MinSupportFrac: 0.25,
			Query: "{(S,T) | S.Type subset {snacks} & T.Type subset {beer} & max(S.Price) <= min(T.Price)}"},
	}
	// want[v][i]: variant i after the first v batches (generation v+1).
	want := make([][]*cfq.Result, len(batches)+1)
	var extra [][]int
	for v := range want {
		for i := range variants {
			want[v] = append(want[v], directResult(t, &variants[i], extra))
		}
		if v < len(batches) {
			extra = append(extra, batches[v]...)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (c + n) % len(variants)
				req := variants[i]
				req.NoCache = n%3 == 0
				b, _ := json.Marshal(&req)
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("variant %d: status %d", i, resp.StatusCode)
				case qr.Generation < 1 || qr.Generation > uint64(len(want)):
					errs <- fmt.Errorf("variant %d: generation %d out of range", i, qr.Generation)
				default:
					if d := answerDiff(qr.Result, want[qr.Generation-1][i]); d != "" {
						errs <- fmt.Errorf("variant %d labelled generation %d: %s", i, qr.Generation, d)
					}
				}
			}
		}(c)
	}
	for _, b := range batches {
		time.Sleep(5 * time.Millisecond)
		status, body := postJSON(t, ts.URL+"/v1/datasets/market/transactions", &MutateRequest{Transactions: b})
		if status != http.StatusOK {
			t.Errorf("mutate: status %d: %s", status, body)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if n++; n <= 5 {
			t.Error(err)
		}
	}
	if n > 5 {
		t.Errorf("... and %d more", n-5)
	}
}
