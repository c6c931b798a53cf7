package main

import (
	"context"
	"fmt"
	"sync"

	"repro/cfq"
	"repro/internal/serve"
)

// answer is the part of a query result the benchmark checks.
type answer struct {
	PairCount int64
	Pairs     []cfq.Pair
}

func (a answer) equal(b answer) bool {
	if a.PairCount != b.PairCount || len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if !setEqual(a.Pairs[i].S, b.Pairs[i].S) || !setEqual(a.Pairs[i].T, b.Pairs[i].T) {
			return false
		}
	}
	return true
}

func setEqual(a, b cfq.FrequentSet) bool {
	if a.Support != b.Support || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// refKey names one reference answer: a query text at a dataset version
// (the number of appended batches applied).
type refKey struct {
	text    string
	version int
}

// datasetSpec is the registration body for the dataset after the first
// `version` appended batches.
func (w *workload) datasetSpec(name string, version int) *serve.DatasetSpec {
	txs := w.txs
	for _, b := range w.batches[:version] {
		txs = append(txs[:len(txs):len(txs)], b...)
	}
	spec := &serve.DatasetSpec{
		Name:         name,
		Items:        w.items,
		Transactions: txs,
		Numeric:      map[string][]float64{"Price": w.prices},
	}
	if w.types != nil {
		spec.Categorical = map[string][]string{"Type": w.types}
	}
	return spec
}

// buildDataset compiles the in-process counterpart of a registered dataset.
func buildDataset(spec *serve.DatasetSpec) (*cfq.Dataset, error) {
	ds := cfq.NewDataset(spec.Items)
	if err := ds.AddTransactions(spec.Transactions); err != nil {
		return nil, err
	}
	for name, vals := range spec.Numeric {
		if err := ds.SetNumeric(name, vals); err != nil {
			return nil, err
		}
	}
	for name, labels := range spec.Categorical {
		if err := ds.SetCategorical(name, labels); err != nil {
			return nil, err
		}
	}
	return ds, ds.Compile()
}

// references computes every answer the served run may return, untimed and
// in-process, through the one-shot Query.RunContext(optimized) path: one per
// query text and dataset version. Two workers, one per core.
func references(ctx context.Context, w *workload) (map[refKey]answer, error) {
	type job struct {
		ds  *cfq.Dataset
		key refKey
	}
	var jobs []job
	texts := map[string]bool{}
	for _, c := range w.classes {
		texts[c.spec.text()] = true
	}
	for v := 0; v <= len(w.batches); v++ {
		ds, err := buildDataset(w.datasetSpec("ref", v))
		if err != nil {
			return nil, err
		}
		for t := range texts {
			jobs = append(jobs, job{ds, refKey{t, v}})
		}
	}
	refs := make(map[refKey]answer, len(jobs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan job)
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				a, err := referenceAnswer(ctx, j.ds, j.key.text)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %q at version %d: %w", j.key.text, j.key.version, err)
				}
				refs[j.key] = a
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

func referenceAnswer(ctx context.Context, ds *cfq.Dataset, text string) (answer, error) {
	q, err := cfq.ParseQuery(ds, text)
	if err != nil {
		return answer{}, err
	}
	res, err := q.MaxPairs(maxPairs).RunContext(ctx, cfq.Optimized)
	if err != nil {
		return answer{}, err
	}
	return answer{PairCount: res.PairCount, Pairs: res.Pairs}, nil
}
