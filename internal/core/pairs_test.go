package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/twovar"
)

// pairWorld is a tiny itemInfo table for pair-formation tests: S reads
// attributes A (numeric) and C (categorical), T reads B and D.
type pairWorld struct {
	a, b attr.Numeric
	c, d *attr.Categorical
}

// The value pools: negatives, NaN, both zeros and ties for prices;
// small category ids, and large or negative ones.
var (
	pricePool  = []float64{-3, -1, math.Copysign(0, -1), 0, 0.5, 1, 1, 2, 2, 7, math.NaN()}
	narrowCats = []int32{0, 1, 2, 3}
	wideCats   = []int32{0, 3, 64, 100, -2}
)

// pairSpec is one 2-var constraint as the reference understands it.
type pairSpec struct {
	dom    bool
	rel    constraint.DomainRel
	a1, a2 attr.Aggregate
	op     constraint.Op
}

// allPairSpecs lists every aggregate × Op × aggregate and every domain
// relation.
func allPairSpecs() []pairSpec {
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ, constraint.NE}
	var out []pairSpec
	for _, a1 := range aggs {
		for _, op := range ops {
			for _, a2 := range aggs {
				out = append(out, pairSpec{a1: a1, op: op, a2: a2})
			}
		}
	}
	for _, rel := range []constraint.DomainRel{
		constraint.DisjointFrom, constraint.Intersects, constraint.SubsetOf,
		constraint.NotSubsetOf, constraint.EqualTo, constraint.SupersetOf,
	} {
		out = append(out, pairSpec{dom: true, rel: rel})
	}
	return out
}

func (p pairSpec) build(w *pairWorld) twovar.Constraint2 {
	if p.dom {
		return twovar.Dom2(p.rel, w.c, "C", w.d, "D")
	}
	return twovar.Agg2(p.a1, w.a, "A", p.op, p.a2, w.b, "B")
}

// refAgg is agg over the set's prices straight from the definitions:
// min, max and avg of ∅ are undefined; sums run in item order.
func refAgg(agg attr.Aggregate, prices attr.Numeric, s itemset.Set) (float64, bool) {
	if agg == attr.Count {
		return float64(len(s)), true
	}
	if agg != attr.Sum && len(s) == 0 {
		return 0, false
	}
	v := 0.0
	switch agg {
	case attr.Min:
		v = math.Inf(1)
	case attr.Max:
		v = math.Inf(-1)
	}
	for _, it := range s {
		switch agg {
		case attr.Min:
			v = math.Min(v, prices[it])
		case attr.Max:
			v = math.Max(v, prices[it])
		default:
			v += prices[it]
		}
	}
	if agg == attr.Avg {
		v /= float64(len(s))
	}
	return v, true
}

func refCmp(op constraint.Op, x, y float64) bool {
	switch op {
	case constraint.LE:
		return x <= y
	case constraint.LT:
		return x < y
	case constraint.GE:
		return x >= y
	case constraint.GT:
		return x > y
	case constraint.EQ:
		return x == y
	}
	return x != y
}

func valuesOf(cat *attr.Categorical, s itemset.Set) map[int32]bool {
	out := map[int32]bool{}
	for _, it := range s {
		out[cat.Values[it]] = true
	}
	return out
}

// within reports x ⊆ y.
func within(x, y map[int32]bool) bool {
	for v := range x {
		if !y[v] {
			return false
		}
	}
	return true
}

// holds evaluates the spec on a pair from the paper's definitions.
func (p pairSpec) holds(w *pairWorld, s, t itemset.Set) bool {
	if p.dom {
		sa, tb := valuesOf(w.c, s), valuesOf(w.d, t)
		meet := false
		for v := range sa {
			meet = meet || tb[v]
		}
		switch p.rel {
		case constraint.DisjointFrom:
			return !meet
		case constraint.Intersects:
			return meet
		case constraint.SubsetOf:
			return within(sa, tb)
		case constraint.NotSubsetOf:
			return !within(sa, tb)
		case constraint.EqualTo:
			return within(sa, tb) && within(tb, sa)
		}
		return within(tb, sa)
	}
	x, okS := refAgg(p.a1, w.a, s)
	y, okT := refAgg(p.a2, w.b, t)
	return okS && okT && refCmp(p.op, x, y)
}

// refFormPairs is the nested loop over S × T in declaration order.
func refFormPairs(w *pairWorld, specs []pairSpec, cons []twovar.Constraint2, validS, validT []itemset.Set, maxPairs int) (pairs [][2]int, count, pruned int64, sites map[string]int64) {
	sites = map[string]int64{}
	for i, s := range validS {
		for j, t := range validT {
			ok := true
			for c, p := range specs {
				if !p.holds(w, s, t) {
					ok = false
					pruned++
					sites["pairs:"+cons[c].String()]++
					break
				}
			}
			if !ok {
				continue
			}
			count++
			if maxPairs == 0 || len(pairs) < maxPairs {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs, count, pruned, sites
}

// counted wraps sets as a single lattice level whose supports are their
// positions, so answer pairs can be mapped back to indexes.
func counted(sets []itemset.Set) [][]mine.Counted {
	lv := make([]mine.Counted, len(sets))
	for i, s := range sets {
		lv[i] = mine.Counted{Set: s, Support: i}
	}
	return [][]mine.Counted{lv}
}

// checkFormPairs runs FormPairs and the reference on the same input and
// reports every difference in answer, count or pruning attribution.
func checkFormPairs(t *testing.T, w *pairWorld, specs []pairSpec, validS, validT []itemset.Set, maxPairs int) {
	t.Helper()
	cons := make([]twovar.Constraint2, len(specs))
	for i, p := range specs {
		cons[i] = p.build(w)
	}
	prune := obs.NewPruneSet()
	res := &Result{LevelsS: counted(validS), LevelsT: counted(validT)}
	if err := FormPairs(obs.WithPruning(context.Background(), prune),
		CFQ{Constraints2: cons, MaxPairs: maxPairs}, res); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantCount, wantPruned, wantSites := refFormPairs(w, specs, cons, validS, validT, maxPairs)
	ctxt := fmt.Sprintf("constraints %v, MaxPairs %d, |S| %d, |T| %d", cons, maxPairs, len(validS), len(validT))
	var got [][2]int
	for _, p := range res.Pairs {
		got = append(got, [2]int{p.S.Support, p.T.Support})
	}
	if fmt.Sprint(got) != fmt.Sprint(wantPairs) {
		t.Fatalf("%s: pairs %v, want %v", ctxt, got, wantPairs)
	}
	if res.PairCount != wantCount {
		t.Fatalf("%s: PairCount %d, want %d", ctxt, res.PairCount, wantCount)
	}
	if res.Stats.CandidatesPruned != wantPruned {
		t.Fatalf("%s: CandidatesPruned %d, want %d", ctxt, res.Stats.CandidatesPruned, wantPruned)
	}
	gotSites := prune.Snapshot()
	if len(gotSites) != len(wantSites) {
		t.Fatalf("%s: prune sites %v, want %v", ctxt, gotSites, wantSites)
	}
	for site, n := range wantSites {
		if gotSites[site] != n {
			t.Fatalf("%s: site %q charged %d, want %d", ctxt, site, gotSites[site], n)
		}
	}
}

// newPairWorld fills a world of nItems items, drawing each value from its
// pool at index draw(len(pool)).
func newPairWorld(nItems int, wide bool, draw func(n int) int) *pairWorld {
	cats := narrowCats
	if wide {
		cats = wideCats
	}
	w := &pairWorld{
		a: make(attr.Numeric, nItems), b: make(attr.Numeric, nItems),
		c: &attr.Categorical{Values: make([]int32, nItems)},
		d: &attr.Categorical{Values: make([]int32, nItems)},
	}
	for i := 0; i < nItems; i++ {
		w.a[i] = pricePool[draw(len(pricePool))]
		w.b[i] = pricePool[draw(len(pricePool))]
		w.c.Values[i] = cats[draw(len(cats))]
		w.d.Values[i] = cats[draw(len(cats))]
	}
	return w
}

// randomSets draws up to max sets over nItems items, with the empty set
// and singletons over-represented.
func randomSets(r *rand.Rand, nItems, max int) []itemset.Set {
	out := make([]itemset.Set, r.Intn(max+1))
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = itemset.Set{}
		case 1:
			out[i] = itemset.New(itemset.Item(r.Intn(nItems)))
		default:
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(2) == 0 {
					items = append(items, itemset.Item(it))
				}
			}
			out[i] = itemset.New(items...)
		}
	}
	return out
}

var testMaxPairs = []int{0, 1, 3, 1e6}

// TestFormPairsMatchesNestedLoop: on random small worlds, the keyed join
// returns exactly what a nested loop over the paper's definitions returns
// — the same pairs in the same order, the same PairCount, and each
// rejected pair charged to its first failing constraint — for every
// aggregate × Op, every domain relation, conjunctions of 1–3 of them, and
// no 2-var constraint at all (the cross product).
func TestFormPairsMatchesNestedLoop(t *testing.T) {
	specs := allPairSpecs()
	r := rand.New(rand.NewSource(1))
	w := newPairWorld(4, false, r.Intn)
	validS, validT := randomSets(r, 4, 8), randomSets(r, 4, 8)
	for _, mp := range testMaxPairs {
		checkFormPairs(t, w, nil, validS, validT, mp)
	}
	for _, spec := range specs {
		for round := 0; round < 4; round++ {
			nItems := 1 + r.Intn(6)
			w := newPairWorld(nItems, round%2 == 1, r.Intn)
			conj := []pairSpec{spec}
			for extra := r.Intn(3); extra > 0; extra-- {
				other := specs[r.Intn(len(specs))]
				if r.Intn(2) == 0 {
					conj = append([]pairSpec{other}, conj...)
				} else {
					conj = append(conj, other)
				}
			}
			validS, validT := randomSets(r, nItems, 8), randomSets(r, nItems, 8)
			for _, mp := range testMaxPairs {
				checkFormPairs(t, w, conj, validS, validT, mp)
			}
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after a
// number of calls, to cancel pair formation in the middle of its work.
type cancelAfter struct {
	context.Context
	calls int
}

func (c *cancelAfter) Err() error {
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// TestFormPairsCancellation: a cancelled context aborts before any work,
// and in the middle of a residual loop within a stride.
func TestFormPairsCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := newPairWorld(6, false, r.Intn)
	var sets []itemset.Set
	for len(sets) < 400 {
		sets = append(sets, randomSets(r, 6, 8)...)
	}
	// Intersects is residual only: the prefix count is a nested loop of
	// 400 × 400 key checks, far more than one stride.
	q := CFQ{Constraints2: []twovar.Constraint2{
		pairSpec{dom: true, rel: constraint.Intersects}.build(w)}}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"pre-cancelled": pre,
		"mid-run":       &cancelAfter{Context: context.Background(), calls: 3},
	} {
		res := &Result{LevelsS: counted(sets), LevelsT: counted(sets)}
		err := FormPairs(ctx, q, res)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "forming pairs") {
			t.Errorf("%s: err = %v, want a forming-pairs error wrapping context.Canceled", name, err)
		}
		if len(res.Pairs) != 0 || res.PairCount != 0 {
			t.Errorf("%s: aborted run left %d pairs, count %d", name, len(res.Pairs), res.PairCount)
		}
	}
}

// FuzzFormPairs decodes bytes into a tiny price/type table, two set lists
// and a conjunction of 2-var constraints, and checks the keyed join
// against the nested-loop reference.
func FuzzFormPairs(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 2, 2, 0, 5, 0, 1, 3, 5, 1, 2, 4, 4, 7, 1, 3})
	f.Add([]byte{0x85, 10, 2, 0, 9, 4, 7, 3, 1, 0, 2, 1, 4, 2, 0, 0, 150, 0, 151, 2, 5, 0, 63, 21, 42, 5, 31, 1, 2, 4, 8, 16})
	f.Add([]byte{5, 4, 4, 5, 6, 6, 4, 0, 1, 2, 3, 0, 1, 0, 0, 60, 3, 6, 1, 2, 3, 6, 7, 8, 9, 10})
	specs := allPairSpecs()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		head := next()
		nItems := 1 + head%6
		w := newPairWorld(nItems, head&0x80 != 0, func(n int) int { return next() % n })
		conj := make([]pairSpec, next()%4)
		for i := range conj {
			conj[i] = specs[(next()<<8|next())%len(specs)]
		}
		maxPairs := testMaxPairs[next()%len(testMaxPairs)]
		sets := func() []itemset.Set {
			out := make([]itemset.Set, next()%7)
			for i := range out {
				mask := next()
				var items []itemset.Item
				for it := 0; it < nItems; it++ {
					if mask&(1<<it) != 0 {
						items = append(items, itemset.Item(it))
					}
				}
				out[i] = itemset.New(items...)
			}
			return out
		}
		validS := sets()
		checkFormPairs(t, w, conj, validS, sets(), maxPairs)
	})
}

// BenchmarkFormPairs times the shared pair former on 600 × 600 valid sets,
// materializing the default 20 pairs: "join" is the dense served shape
// sum(S.Price) <= sum(T.Price) & S.Type = T.Type; "residual" has no
// joinable constraint, sum(S.Price) != sum(T.Price) & S.Type ∩ T.Type ≠ ∅.
func BenchmarkFormPairs(b *testing.B) {
	const nItems, nSets = 100, 600
	r := rand.New(rand.NewSource(4))
	price := make(attr.Numeric, nItems)
	typ := &attr.Categorical{Values: make([]int32, nItems)}
	for i := range price {
		price[i] = float64(r.Intn(1000))
		typ.Values[i] = int32(r.Intn(10))
	}
	sets := func() [][]mine.Counted {
		lv := make([]mine.Counted, nSets)
		for i := range lv {
			items := make([]itemset.Item, 1+r.Intn(3))
			for j := range items {
				items[j] = itemset.Item(r.Intn(nItems))
			}
			lv[i] = mine.Counted{Set: itemset.New(items...), Support: 100}
		}
		return [][]mine.Counted{lv}
	}
	levelsS, levelsT := sets(), sets()
	for _, bc := range []struct {
		name string
		cons []twovar.Constraint2
	}{
		{"join", []twovar.Constraint2{
			twovar.Agg2(attr.Sum, price, "Price", constraint.LE, attr.Sum, price, "Price"),
			twovar.Dom2(constraint.EqualTo, typ, "Type", typ, "Type"),
		}},
		{"residual", []twovar.Constraint2{
			twovar.Agg2(attr.Sum, price, "Price", constraint.NE, attr.Sum, price, "Price"),
			twovar.Dom2(constraint.Intersects, typ, "Type", typ, "Type"),
		}},
	} {
		q := CFQ{MaxPairs: 20, Constraints2: bc.cons}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := &Result{LevelsS: levelsS, LevelsT: levelsT}
				if err := FormPairs(context.Background(), q, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
