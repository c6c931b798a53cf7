package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// maxPairs is cfqd's -default-maxpairs: the served answers and the
// in-process references both materialize this many pairs.
const maxPairs = 20

// agg2Spec is an ordered 2-var aggregate constraint agg(S.Price) op agg(T.Price).
type agg2Spec struct {
	s  attr.Aggregate
	op constraint.Op
	t  attr.Aggregate
}

func (a agg2Spec) String() string { return fmt.Sprintf("%v(S.Price) %v %v(T.Price)", a.s, a.op, a.t) }

// The ordered aggregates the dense workloads draw from.
var (
	maxLEmin = agg2Spec{attr.Max, constraint.LE, attr.Min}
	sumLEsum = agg2Spec{attr.Sum, constraint.LE, attr.Sum}
	minGEmax = agg2Spec{attr.Min, constraint.GE, attr.Max}
	avgLEavg = agg2Spec{attr.Avg, constraint.LE, attr.Avg}
)

// querySpec is one distinct CFQ. It renders to the text cfqd parses and
// carries the structure the traced run needs to build the same query for
// core.Run directly.
type querySpec struct {
	sup       int     // freq(S) >= sup & freq(T) >= sup
	sMinPrice float64 // min(S.Price) >= sMinPrice, when > 0
	tMaxPrice float64 // max(T.Price) <= tMaxPrice, when > 0
	agg2      agg2Spec
	typeEq    bool // S.Type = T.Type
}

func (q querySpec) text() string {
	parts := []string{fmt.Sprintf("freq(S) >= %d & freq(T) >= %d", q.sup, q.sup)}
	if q.sMinPrice > 0 {
		parts = append(parts, fmt.Sprintf("min(S.Price) >= %g", q.sMinPrice))
	}
	if q.tMaxPrice > 0 {
		parts = append(parts, fmt.Sprintf("max(T.Price) <= %g", q.tMaxPrice))
	}
	parts = append(parts, q.agg2.String())
	if q.typeEq {
		parts = append(parts, "S.Type = T.Type")
	}
	return strings.Join(parts, " & ")
}

// class is one distinct request: a query plus the wire strategy ("" is
// the server default, optimized).
type class struct {
	spec     querySpec
	strategy string
}

// workload is everything one benchmark workload sends to cfqd: the
// generated dataset, the distinct requests, and how clients draw them.
type workload struct {
	name string
	why  string

	items  int
	txs    [][]int // the dataset's transactions at registration
	prices []float64
	types  []string // nil when the workload has no Type attribute

	classes   []class
	noSession bool // evaluate through the one-shot engine, not the session
	noCache   bool // bypass the result cache
	clients   int  // closed-loop query clients
	// Each client cycles through seeded shuffles of a list holding class i
	// weights[i] times (once each when weights is nil), so every class keeps
	// its share of the requests in every run.
	weights []int
	// warm are the query texts sent once during set-up, after the dataset
	// is registered; warmClasses also sends every class once.
	warm        []string
	warmClasses bool

	// append-mix: an open-loop writer appends batches[k] at
	// (k+1/2)*appendEvery against a durable cfqd.
	durable     bool
	batches     [][][]int
	appendEvery time.Duration
}

var workloadNames = []string{"fig8a-mine", "dense-pairs", "append-mix"}

// newWorkload generates a workload's inputs from the seed. The Quest table
// of each workload is fixed (generator seed 1, as internal/exp and cfqd's
// own generator use); the seed relabels its items, permutes its
// transactions, orders the request streams and draws the appended batches.
// Every seed therefore sends different bytes with the same frequent-set
// structure, which keeps figures comparable across seeds.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "fig8a-mine":
		return fig8aMine(rng)
	case "dense-pairs":
		return densePairs(rng)
	case "append-mix":
		return appendMix(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// fig8aMine is the paper's Figure 8(a) at the overlap points <= 50%:
// Quest scale 25 (4,000 tx x 1,000 items), uniform prices, 1% support.
func fig8aMine(rng *rand.Rand) (*workload, error) {
	p := gen.Default(25)
	p.Seed = 1
	db, err := gen.Quest(p)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(p.NumItems)
	w := &workload{
		name:        "fig8a-mine",
		why:         "mining levels, Jmax rounds and quasi-succinct reductions dominate; the only workload with the planner on the blocking path",
		items:       p.NumItems,
		txs:         relabel(db.Transactions(), perm, rng),
		prices:      permuteFloats(gen.UniformPrices(p.NumItems, 0, 1000, p.Seed+101), perm),
		noSession:   true,
		noCache:     true,
		clients:     2,
		warmClasses: true, // fills cfqd's plan cache for the auto requests
	}
	sup := p.NumTransactions / 100
	for _, overlap := range []float64{16.6, 33.3, 50} {
		spec := querySpec{sup: sup, sMinPrice: 400, tMaxPrice: 400 + overlap/100*600, agg2: maxLEmin}
		w.classes = append(w.classes, class{spec: spec}, class{spec: spec, strategy: "auto"})
	}
	return w, nil
}

// denseBase is the dense served dataset: Quest 4,000 tx x 100 items (cfqd's
// own generator shape), uniform prices and 10 uniform types.
func denseBase(rng *rand.Rand, numTx int) (*workload, error) {
	p := gen.Default(1)
	p.NumTransactions = numTx
	p.NumItems = 100
	p.NumPatterns = 80
	p.Seed = 1
	db, err := gen.Quest(p)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(p.NumItems)
	vals, names := gen.UniformTypes(p.NumItems, 10, p.Seed+2)
	types := make([]string, p.NumItems)
	for i, v := range vals {
		types[perm[i]] = names[v]
	}
	return &workload{
		items:  p.NumItems,
		txs:    relabel(db.Transactions(), perm, rng),
		prices: permuteFloats(gen.UniformPrices(p.NumItems, 0, 1000, p.Seed+1), perm),
		types:  types,
	}, nil
}

// denseSupports are the fixed support levels of dense-pairs with their
// shares of the requests. At the lowest a single query stays well under
// cfqd's 500 ms adaptive-admission target. The shares keep the median and
// the 90th percentile inside a cluster of like-cost queries rather than in
// the gap between two clusters, where they would jump from run to run.
var denseSupports = []struct{ sup, weight int }{{120, 2}, {150, 3}, {180, 1}}

func densePairs(rng *rand.Rand) (*workload, error) {
	w, err := denseBase(rng, 4000)
	if err != nil {
		return nil, err
	}
	w.name = "dense-pairs"
	w.why = "warm session lattice, so pair formation and encoding are nearly all of each query"
	w.noCache = true
	w.clients = 2
	for _, ds := range denseSupports {
		for _, a := range []agg2Spec{maxLEmin, sumLEsum, avgLEavg} {
			w.classes = append(w.classes, class{spec: querySpec{sup: ds.sup, agg2: a, typeEq: true}})
			w.weights = append(w.weights, ds.weight)
		}
	}
	lo := denseSupports[0].sup
	w.warm = []string{fmt.Sprintf("freq(S) >= %d & freq(T) >= %d", lo, lo)}
	return w, nil
}

// appendMix is a durable cfqd taking small appends on a fixed schedule
// while one reader repeats a skewed mix of four query texts.
func appendMix(rng *rand.Rand, seconds int) (*workload, error) {
	const (
		initial = 4000
		batch   = 20
		every   = 2 * time.Second
	)
	n := int(time.Duration(seconds)*time.Second/every) + 1
	w, err := denseBase(rng, initial+n*batch)
	if err != nil {
		return nil, err
	}
	w.name = "append-mix"
	w.why = "durable appends invalidate the session and result caches between repeated reads: store, recompiles, cold re-mining, cache hits"
	for k := 0; k < n; k++ {
		w.batches = append(w.batches, w.txs[initial+k*batch:initial+(k+1)*batch])
	}
	w.txs = w.txs[:initial]
	w.durable = true
	w.appendEvery = every
	w.clients = 1
	w.classes = []class{
		{spec: querySpec{sup: 120, agg2: maxLEmin}},
		{spec: querySpec{sup: 120, agg2: sumLEsum, typeEq: true}},
		{spec: querySpec{sup: 160, agg2: minGEmax}},
		{spec: querySpec{sup: 100, agg2: maxLEmin, typeEq: true}},
	}
	w.weights = []int{8, 4, 2, 1}
	w.warmClasses = true // fills the session and result caches
	return w, nil
}

// relabel maps item i to perm[i] in every transaction and shuffles the
// transaction order.
func relabel(txs []itemset.Set, perm []int, rng *rand.Rand) [][]int {
	out := make([][]int, len(txs))
	for i, t := range txs {
		row := make([]int, len(t))
		for j, it := range t {
			row[j] = perm[it]
		}
		sort.Ints(row)
		out[i] = row
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func permuteFloats(vals []float64, perm []int) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[perm[i]] = v
	}
	return out
}

// stream returns client c's request sequence: seeded, so the same seed
// replays the same requests.
func (w *workload) stream(seed int64, c int) func() int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
	var deck []int
	for i := range w.classes {
		n := 1
		if w.weights != nil {
			n = w.weights[i]
		}
		for k := 0; k < n; k++ {
			deck = append(deck, i)
		}
	}
	var cycle []int
	return func() int {
		if len(cycle) == 0 {
			cycle = append(cycle, deck...)
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		i := cycle[0]
		cycle = cycle[1:]
		return i
	}
}

// minSupport is the lowest support any request of the workload uses.
func (w *workload) minSupport() int {
	lo := w.classes[0].spec.sup
	for _, c := range w.classes {
		if c.spec.sup < lo {
			lo = c.spec.sup
		}
	}
	return lo
}

// resampleBatches draws n batches of size existing transactions, for
// timing appends on workloads whose served stream has none.
func (w *workload) resampleBatches(rng *rand.Rand, n, size int) [][][]int {
	if w.batches != nil {
		return w.batches
	}
	out := make([][][]int, n)
	for k := range out {
		for j := 0; j < size; j++ {
			out[k] = append(out[k], w.txs[rng.Intn(len(w.txs))])
		}
	}
	return out
}
