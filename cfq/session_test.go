package cfq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSessionMatchesDirectRun(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)

	queries := []*Query{
		NewQuery(ds).MinSupport(2).
			Where2(Join(Max, "Price", LE, Min, "Price")),
		NewQuery(ds).MinSupport(2).
			WhereS(Domain(SubsetOf, "Type", "snacks")).
			WhereT(Aggregate(Min, "Price", GE, 8)).
			Where2(Join(Max, "Price", LE, Min, "Price")),
		NewQuery(ds).MinSupport(3). // refinement: higher threshold
						WhereS(Domain(SubsetOf, "Type", "snacks")),
		NewQuery(ds).MinSupport(2).
			WhereT(Cardinality(LE, 2)).
			Where2(DomainJoin(DisjointFrom, "Type", "Type")),
	}
	for i, q := range queries {
		fromSession, err := sess.Run(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		direct, err := q.Run(Optimized)
		if err != nil {
			t.Fatalf("query %d direct: %v", i, err)
		}
		if strings.Join(pairKeys(fromSession), ";") != strings.Join(pairKeys(direct), ";") {
			t.Errorf("query %d: session answer differs from direct run", i)
		}
		if fromSession.PairCount != direct.PairCount {
			t.Errorf("query %d: PairCount %d vs %d", i, fromSession.PairCount, direct.PairCount)
		}
	}
	// First query misses for the shared (nil-domain) lattice; all later
	// queries (same domain, equal-or-higher threshold) hit.
	cs := sess.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", cs.Misses)
	}
	if cs.Hits < 2*len(queries)-1 {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, 2*len(queries)-1)
	}
}

func TestSessionLowerThresholdRemines(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(ds).MinSupport(4)); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := sess.CacheStats().Misses
	// A *lower* threshold cannot be served from the cache.
	if _, err := sess.Run(NewQuery(ds).MinSupport(2)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses <= missesAfterFirst {
		t.Error("lower threshold served from a higher-threshold cache")
	}
	// …but now the low-threshold lattice serves both.
	hits := sess.CacheStats().Hits
	if _, err := sess.Run(NewQuery(ds).MinSupport(4)); err != nil {
		t.Fatal(err)
	}
	if h := sess.CacheStats().Hits; h <= hits {
		t.Error("refinement after re-mining did not hit the cache")
	}
}

func TestSessionInvalidation(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	res1, err := sess.Run(NewQuery(ds).MinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the dataset: the cache must be rebuilt and the answer change.
	for i := 0; i < 5; i++ {
		if err := ds.AddTransaction(0, 5); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := sess.Run(NewQuery(ds).MinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	if res1.PairCount == res2.PairCount {
		t.Error("answer unchanged after dataset mutation (stale cache?)")
	}
	direct, _ := NewQuery(ds).MinSupport(2).Run(Optimized)
	if res2.PairCount != direct.PairCount {
		t.Errorf("post-mutation session answer %d, direct %d", res2.PairCount, direct.PairCount)
	}
}

func TestSessionDomainsCachedSeparately(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(ds).MinSupport(2).DomainS(0, 1, 2).DomainT(3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses != 2 {
		t.Errorf("misses = %d, want 2 (one per domain)", misses)
	}
	if _, err := sess.Run(NewQuery(ds).MinSupport(3).DomainS(0, 1, 2).DomainT(3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses != 2 {
		t.Errorf("refinement re-mined: misses = %d", misses)
	}
}

func TestSessionWrongDataset(t *testing.T) {
	ds := marketDataset(t)
	other := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(other)); err == nil {
		t.Error("query against a different dataset accepted")
	}
	if _, err := sess.Run(nil); err == nil {
		t.Error("nil query accepted")
	}
}

// typedDataset builds a seeded dataset of 14 items with tied prices and
// three types, dense enough that S.Type = T.Type joins many pairs.
func typedDataset(t *testing.T) *Dataset {
	t.Helper()
	const n = 14
	r := rand.New(rand.NewSource(7))
	prices := make([]float64, n)
	types := make([]string, n)
	for i := range prices {
		prices[i] = float64(1 + r.Intn(6))
		types[i] = []string{"a", "b", "c"}[r.Intn(3)]
	}
	ds := NewDataset(n)
	if err := ds.SetNumeric("Price", prices); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Type", types); err != nil {
		t.Fatal(err)
	}
	txs := make([][]int, 80)
	for i := range txs {
		for it := 0; it < n; it++ {
			if r.Intn(3) == 0 {
				txs[i] = append(txs[i], it)
			}
		}
	}
	if err := ds.AddTransactions(txs); err != nil {
		t.Fatal(err)
	}
	return ds
}

// orderedPairs renders the answer in its returned order.
func orderedPairs(res *Result) string {
	var b strings.Builder
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "%v|%v;", p.S.Items, p.T.Items)
	}
	return b.String()
}

// TestPairFormationAgreesAcrossPaths: on agg(S.Price) op agg(T.Price) &
// S.Type = T.Type, the session, one-shot Optimized, Sequential and a
// two-worker Optimized run return the same pairs in the same order and the
// same PairCount, at MaxPairs 0 and 3, and each keeps its pruning
// attribution summing to CandidatesPruned. (The sums themselves differ by
// path: the session keeps S- and T-sets that the optimizer's reductions
// prune before pair formation.)
func TestPairFormationAgreesAcrossPaths(t *testing.T) {
	ds := typedDataset(t)
	sess := NewSession(ds)
	joins := []Constraint2{
		Join(Max, "Price", LE, Min, "Price"),
		Join(Sum, "Price", LE, Sum, "Price"),
		Join(Avg, "Price", GE, Avg, "Price"),
		Join(Min, "Price", EQ, Max, "Price"),
		Join(Sum, "Price", NE, Sum, "Price"),
	}
	for _, join := range joins {
		for _, maxPairs := range []int{0, 3} {
			query := func() *Query {
				return NewQuery(ds).MinSupport(12).MaxPairs(maxPairs).
					Where2(join, DomainJoin(EqualTo, "Type", "Type"))
			}
			paths := []struct {
				name string
				run  func(context.Context) (*Result, error)
			}{
				{"session", func(ctx context.Context) (*Result, error) { return sess.RunContext(ctx, query()) }},
				{"optimized", func(ctx context.Context) (*Result, error) { return query().RunContext(ctx, Optimized) }},
				{"sequential", func(ctx context.Context) (*Result, error) { return query().RunContext(ctx, Sequential) }},
				{"workers-2", func(ctx context.Context) (*Result, error) { return query().Workers(2).RunContext(ctx, Optimized) }},
			}
			var want *Result
			for _, p := range paths {
				prune := NewPruneSet()
				res, err := p.run(WithPruning(context.Background(), prune))
				if err != nil {
					t.Fatalf("%v, MaxPairs %d, %s: %v", join, maxPairs, p.name, err)
				}
				if got := prune.Total(); got != res.Stats.CandidatesPruned {
					t.Errorf("%v, MaxPairs %d, %s: prune sites sum to %d, CandidatesPruned %d",
						join, maxPairs, p.name, got, res.Stats.CandidatesPruned)
				}
				if want == nil {
					want = res
					if res.PairCount == 0 {
						t.Fatalf("%v: empty answer exercises nothing", join)
					}
					continue
				}
				if res.PairCount != want.PairCount || orderedPairs(res) != orderedPairs(want) {
					t.Errorf("%v, MaxPairs %d: %s answered %d pairs %s, session %d pairs %s",
						join, maxPairs, p.name, res.PairCount, orderedPairs(res), want.PairCount, orderedPairs(want))
				}
			}
		}
	}
}

// TestSessionCancelledInPairFormation: a pre-cancelled context on a warm
// session gets past the cache lookups, fails in pair formation with the
// cancellation wrapped, and leaves the cache counters untouched.
func TestSessionCancelledInPairFormation(t *testing.T) {
	ds := typedDataset(t)
	sess := NewSession(ds)
	query := NewQuery(ds).MinSupport(12).
		Where2(Join(Sum, "Price", LE, Sum, "Price"), DomainJoin(EqualTo, "Type", "Type"))
	if _, err := sess.Run(query); err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.RunContext(ctx, query)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "forming pairs") {
		t.Fatalf("err = %v, want a forming-pairs error wrapping context.Canceled", err)
	}
	if after := sess.CacheStats(); after != before {
		t.Errorf("cancelled run changed CacheStats: %+v -> %+v", before, after)
	}
}

// TestSessionClose: a closed session releases its cached bytes from the
// session_cache_bytes gauge, stays empty, and still answers correctly.
func TestSessionClose(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	q := NewQuery(ds).MinSupport(2).Where2(Join(Max, "Price", LE, Min, "Price"))
	before := obs.MCacheBytes.Value()
	if _, err := sess.Run(q); err != nil {
		t.Fatal(err)
	}
	cached := sess.CacheStats().Bytes
	if cached == 0 || obs.MCacheBytes.Value()-before != cached {
		t.Fatalf("cache holds %d bytes, gauge moved %d", cached, obs.MCacheBytes.Value()-before)
	}
	sess.Close()
	if cs := sess.CacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Errorf("closed session still caches: %+v", cs)
	}
	if got := obs.MCacheBytes.Value() - before; got != 0 {
		t.Errorf("gauge holds %d bytes after Close", got)
	}
	res, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := q.Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if orderedPairs(res) != orderedPairs(direct) || res.PairCount != direct.PairCount {
		t.Error("closed session answers differently from a direct run")
	}
	if cs := sess.CacheStats(); cs.Entries != 0 || obs.MCacheBytes.Value() != before {
		t.Errorf("closed session stored a lattice: %+v", cs)
	}
}
