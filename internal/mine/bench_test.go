package mine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// benchDB builds a mid-size database with planted structure so the
// levelwise engine has real work at every level.
func benchDB(numTx int) *txdb.DB {
	r := rand.New(rand.NewSource(7))
	txs := make([]itemset.Set, numTx)
	for i := range txs {
		items := make([]itemset.Item, 0, 12)
		// A hot clique in a third of the baskets plus random tail items.
		if i%3 == 0 {
			for j := 0; j < 6; j++ {
				if r.Intn(4) != 0 {
					items = append(items, itemset.Item(j))
				}
			}
		}
		for j := 0; j < 6; j++ {
			items = append(items, itemset.Item(6+r.Intn(194)))
		}
		txs[i] = itemset.New(items...)
	}
	return txdb.New(txs)
}

func BenchmarkLevelwiseEndToEnd(b *testing.B) {
	db := benchDB(5000)
	minSup := db.Len() / 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllFrequent(context.Background(), db, minSup, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieCounting(b *testing.B) {
	db := benchDB(5000)
	minSup := db.Len() / 50
	// Mine once to reach level 2 state, then measure repeated level steps
	// indirectly by full re-runs with preset level 1 (isolates generation
	// plus counting beyond level 1).
	lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup})
	if err != nil {
		b.Fatal(err)
	}
	lw.Step()
	preset := lw.FrequentItemCounts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lw2, err := New(context.Background(), Config{DB: db, MinSupport: minSup, PresetL1: preset})
		if err != nil {
			b.Fatal(err)
		}
		lw2.RunAll()
	}
}

func BenchmarkParallelCounting(b *testing.B) {
	db := benchDB(20000)
	minSup := db.Len() / 50
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "serial", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				lw.RunAll()
			}
		})
	}
}

// BenchmarkTracingOverhead compares a run with no tracer in the context
// (the default: every instrumentation point is one nil comparison)
// against a run recording spans. "disabled" vs the plain levelwise
// benchmark is the regression gate the ISSUE requires.
func BenchmarkTracingOverhead(b *testing.B) {
	db := benchDB(5000)
	minSup := db.Len() / 50
	b.Run("disabled", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := AllFrequent(ctx, db, minSup, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracer := obs.NewTracer(obs.Options{Name: "bench"})
			ctx := obs.WithTracer(context.Background(), tracer)
			if _, err := AllFrequent(ctx, db, minSup, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
