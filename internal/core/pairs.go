package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/constraint"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/twovar"
)

// pairCancelStride is how many units of pair-formation work (S-sets and
// pairwise key checks) run between context checks. On dense queries pair
// formation can dwarf the mining work, and a drain or query deadline must
// be able to abort mid-answer.
const pairCancelStride = 8192

// FormPairs materializes the answer into res: the pairs of res.ValidS() ×
// res.ValidT() satisfying every 2-var constraint of q, S-major and in
// ValidT order, truncated to q.MaxPairs (0 = all), with the exact
// PairCount. It is the one pair-formation implementation: every strategy
// and cfq.Session end with it. The "pairs" span opens here, after every
// Stats.Add fold into res.Stats, so its delta is exactly this work.
//
// Pair formation is a keyed join rather than a cross product of constraint
// evaluations. Each constraint's keys (twovar.Key) are computed once per
// set, and the constraints are applied per S-set one step at a time, in
// declaration order. The first constraint, and every joinable one, gets an
// index over the T-sets for the prefix C₁…Cᵢ: T grouped by the JoinEqual
// keys, each group sorted by every JoinOrdered key, the narrowest ordered
// range leading and the rest of the prefix (JoinResidual constraints, the
// other ordered ones) filtering it. A later JoinResidual constraint
// filters the T-sets that passed the step before it, one Match each, so a
// query with no joinable constraint is a short-circuiting nested loop over
// the keys. The survivors of each step give PairCount, and charge each
// rejected pair to the "pairs:<c2>" site of its first failing constraint,
// exactly as a per-pair loop in declaration order would. Only pairs that
// are materialized are enumerated.
//
// Stats.PairChecks counts the pairwise Match evaluations actually
// performed by residual filters and materialization; hash lookups and
// binary searches are not pair checks. A cancelled ctx aborts within
// pairCancelStride units of work, leaving res without pairs.
func FormPairs(ctx context.Context, q CFQ, res *Result) error {
	tracer := obs.FromContext(ctx)
	var sp *obs.Span
	if tracer != nil {
		sp = tracer.Start("pairs").WithStats(res.Stats.Counters())
	}
	err := formPairs(ctx, q, res, obs.PruningFromContext(ctx))
	if sp != nil {
		sp.SetAttrs(obs.Int64("pair_count", res.PairCount))
		sp.End(res.Stats.Counters())
	}
	return err
}

func formPairs(ctx context.Context, q CFQ, res *Result, prune *obs.PruneSet) error {
	validS, validT := res.ValidS(), res.ValidT()
	if len(validS) == 0 || len(validT) == 0 {
		return nil
	}
	j := newPairJoin(ctx, q.Constraints2, validS, validT)
	if err := j.tick(0); err != nil {
		return err
	}
	rejected := make([]int64, len(q.Constraints2))
	counts := make([]int, len(validS)) // T-sets each S-set pairs with
	var total int64
	for s := range validS {
		if err := j.tick(1); err != nil {
			return err
		}
		n := len(validT)
		if len(j.steps) > 0 {
			ts, _, err := j.survivors(s, rejected, 0)
			if err != nil {
				return err
			}
			n = len(ts)
		}
		counts[s] = n
		total += int64(n)
	}
	limit := total
	if q.MaxPairs > 0 {
		limit = min(limit, int64(q.MaxPairs))
	}
	pairs := make([]Pair, 0, limit)
	for s := 0; int64(len(pairs)) < limit; s++ {
		if counts[s] == 0 {
			continue
		}
		ts, err := j.collect(s, min(counts[s], int(limit)-len(pairs)))
		if err != nil {
			return err
		}
		for _, t := range ts {
			pairs = append(pairs, Pair{S: validS[s], T: validT[t]})
		}
	}
	res.Pairs = pairs
	res.PairCount = total
	res.Stats.PairChecks += j.checks
	for i, c2 := range q.Constraints2 {
		// A rejected pair is one pruned answer candidate: the cost a plan
		// pays for 2-var constraints it could not push into the lattices.
		res.Stats.CandidatesPruned += rejected[i]
		prune.Charge(fmt.Sprintf("pairs:%v", c2), rejected[i])
	}
	return nil
}

// pairJoin is one pair formation's state: every constraint's keys on both
// sides, the steps, and the work counters.
type pairJoin struct {
	ctx  context.Context
	cons []twovar.Constraint2
	kind []twovar.JoinKind
	op   []constraint.Op
	// keyS[c][s] and keyT[c][t] are constraint c's keys of S-set s and
	// T-set t.
	keyS, keyT [][]twovar.Key
	nT         int
	// steps[c] finds the T-sets satisfying constraints 0…c given those
	// satisfying 0…c-1.
	steps      []pairStep
	scratch    [2][]keyedT // alternating step outputs
	checks     int64       // pairwise Match evaluations (Stats.PairChecks)
	work, next int64       // cancellation clock
	buf        []byte
}

// pairStep adds one constraint to the prefix. A JoinResidual constraint
// after the first filters the previous step's survivors with one Match
// each; any other constraint gets a fresh index over the whole prefix.
type pairStep struct {
	ix *pairIndex // nil for a residual filter
	c  int
}

func newPairJoin(ctx context.Context, cons []twovar.Constraint2, validS, validT []mine.Counted) *pairJoin {
	j := &pairJoin{ctx: ctx, cons: cons, nT: len(validT)}
	keys := func(c2 twovar.Constraint2, side twovar.Side, sets []mine.Counted) []twovar.Key {
		out := make([]twovar.Key, len(sets))
		for i, x := range sets {
			out[i] = c2.Key(side, x.Set)
		}
		return out
	}
	for _, c2 := range cons {
		kind, op := c2.Join()
		j.kind = append(j.kind, kind)
		j.op = append(j.op, op)
		j.keyS = append(j.keyS, keys(c2, twovar.SideS, validS))
		j.keyT = append(j.keyT, keys(c2, twovar.SideT, validT))
	}
	for c := range cons {
		if c > 0 && j.kind[c] == twovar.JoinResidual {
			j.steps = append(j.steps, pairStep{c: c})
		} else {
			j.steps = append(j.steps, pairStep{ix: j.index(c + 1)})
		}
	}
	return j
}

// survivors runs the steps for S-set s and returns the T-sets satisfying
// every constraint, in T order when inOrder. Each step's drop is added to
// rejected (when non-nil): the pairs whose first failing constraint is that
// step's. need > 0 lets a last step whose input is in T order stop at need
// survivors. The result aliases the index or scratch space.
func (j *pairJoin) survivors(s int, rejected []int64, need int) (ts []keyedT, inOrder bool, err error) {
	n := j.nT
	for i, st := range j.steps {
		stop := 0
		if i == len(j.steps)-1 {
			stop = need
		}
		lead := -1
		if st.ix != nil {
			ts, lead = st.ix.candidates(j, s)
			inOrder = lead < 0
			if !st.ix.exact() {
				ts, err = j.filter(i, st, s, ts, inOrder, lead, stop)
			}
		} else {
			ts, err = j.filter(i, st, s, ts, inOrder, lead, stop)
		}
		if err != nil {
			return nil, false, err
		}
		if rejected != nil {
			rejected[i] += int64(n - len(ts))
		}
		if n = len(ts); n == 0 {
			break
		}
	}
	return ts, inOrder, nil
}

// filter keeps the T-sets of in passing step i for S-set s, stopping at
// stop (> 0) survivors when in is in T order.
func (j *pairJoin) filter(i int, st pairStep, s int, in []keyedT, inOrder bool, lead, stop int) ([]keyedT, error) {
	out := j.scratch[i%2][:0]
	for _, e := range in {
		if inOrder && stop > 0 && len(out) == stop {
			break // the rest come later in T order
		}
		if err := j.tick(1); err != nil {
			return nil, err
		}
		var ok bool
		if st.ix != nil {
			ok = st.ix.passes(j, s, e.t, lead)
		} else {
			ok = j.match(st.c, s, e.t)
		}
		if ok {
			out = append(out, e)
		}
	}
	j.scratch[i%2] = out
	return out, nil
}

// collect returns the first need T-sets, in T order, that S-set s pairs
// with; s pairs with at least need.
func (j *pairJoin) collect(s, need int) ([]int32, error) {
	ts := make([]int32, 0, need)
	if len(j.steps) == 0 {
		for t := 0; t < need; t++ {
			if err := j.tick(1); err != nil {
				return nil, err
			}
			ts = append(ts, int32(t))
		}
		return ts, nil
	}
	surv, inOrder, err := j.survivors(s, nil, need)
	if err != nil {
		return nil, err
	}
	for _, e := range surv {
		if err := j.tick(1); err != nil {
			return nil, err
		}
		ts = append(ts, e.t)
	}
	if !inOrder {
		slices.Sort(ts)
	}
	return ts[:need], nil
}

// tick advances the cancellation clock by n units and checks ctx each
// time the clock passes a stride boundary (and on the very first tick).
func (j *pairJoin) tick(n int) error {
	j.work += int64(n)
	if j.work < j.next {
		return nil
	}
	j.next = j.work + pairCancelStride
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("core: forming pairs: %w", err)
	}
	return nil
}

// match evaluates constraint c on S-set s and T-set t.
func (j *pairJoin) match(c, s int, t int32) bool {
	j.checks++
	return j.cons[c].Match(j.keyS[c][s], j.keyT[c][t])
}

// usable reports whether a key can take part in an equality or ordered
// join. Under = and the orderings an undefined aggregate or a NaN matches
// nothing, so such sets drop out of the index (S-side: pair with nothing).
func usable(k twovar.Key) bool { return k.OK && !math.IsNaN(k.Num) }

// appendGroupKey appends set i's keys for the equality constraints eq as
// one byte string; false when some key is not usable.
func appendGroupKey(buf []byte, eq []int, keys [][]twovar.Key, i int) ([]byte, bool) {
	for _, c := range eq {
		k := keys[c][i]
		if !usable(k) {
			return buf, false
		}
		v := k.Num
		if v == 0 {
			v = 0 // -0 = +0
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.Vals)))
		for _, x := range k.Vals {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	return buf, true
}

// pairIndex finds, for one S-set, the T-sets satisfying a prefix of the
// constraints.
type pairIndex struct {
	eq, ord, rest []int // the prefix's constraints by JoinKind
	// groups holds the T-sets by their eq keys (one group, "", when the
	// prefix has no equality constraint).
	groups map[string]*pairGroup
}

// pairGroup is the T-sets sharing one combination of equality keys.
type pairGroup struct {
	members []keyedT   // in T order
	byKey   [][]keyedT // per ordered constraint: usable keys, ascending
}

type keyedT struct {
	v float64
	t int32
}

// index builds the pairIndex of the first n constraints.
func (j *pairJoin) index(n int) *pairIndex {
	ix := &pairIndex{groups: map[string]*pairGroup{}}
	for c := 0; c < n; c++ {
		switch j.kind[c] {
		case twovar.JoinEqual:
			ix.eq = append(ix.eq, c)
		case twovar.JoinOrdered:
			ix.ord = append(ix.ord, c)
		default:
			ix.rest = append(ix.rest, c)
		}
	}
	var buf []byte
	for t := 0; t < j.nT; t++ {
		var ok bool
		if buf, ok = appendGroupKey(buf[:0], ix.eq, j.keyT, t); !ok {
			continue
		}
		g := ix.groups[string(buf)]
		if g == nil {
			g = &pairGroup{byKey: make([][]keyedT, len(ix.ord))}
			ix.groups[string(buf)] = g
		}
		g.members = append(g.members, keyedT{t: int32(t)})
		for o, c := range ix.ord {
			if k := j.keyT[c][t]; usable(k) {
				g.byKey[o] = append(g.byKey[o], keyedT{v: k.Num, t: int32(t)})
			}
		}
	}
	for _, g := range ix.groups {
		for _, es := range g.byKey {
			slices.SortFunc(es, func(a, b keyedT) int { return cmp.Compare(a.v, b.v) })
		}
	}
	return ix
}

// candidates returns the T-sets S-set s has to be checked against: its
// equality group, narrowed to the shortest range of an ordered constraint
// when the prefix has any (lead is that constraint's position in ix.ord,
// else -1 and the candidates are in T order).
func (ix *pairIndex) candidates(j *pairJoin, s int) (cands []keyedT, lead int) {
	var ok bool
	if j.buf, ok = appendGroupKey(j.buf[:0], ix.eq, j.keyS, s); !ok {
		return nil, -1
	}
	g := ix.groups[string(j.buf)]
	if g == nil {
		return nil, -1
	}
	lead = -1
	var lo, hi int
	for o, c := range ix.ord {
		k := j.keyS[c][s]
		if !usable(k) {
			return nil, -1
		}
		l, h := orderedRange(j.op[c], k.Num, g.byKey[o])
		if lead < 0 || h-l < hi-lo {
			lead, lo, hi = o, l, h
		}
	}
	if lead < 0 {
		return g.members, -1
	}
	return g.byKey[lead][lo:hi], lead
}

// orderedRange returns the run of es (ascending by key) whose keys v
// satisfy x op v.
func orderedRange(op constraint.Op, x float64, es []keyedT) (lo, hi int) {
	switch op {
	case constraint.LE:
		return sort.Search(len(es), func(i int) bool { return es[i].v >= x }), len(es)
	case constraint.LT:
		return sort.Search(len(es), func(i int) bool { return es[i].v > x }), len(es)
	case constraint.GE:
		return 0, sort.Search(len(es), func(i int) bool { return es[i].v > x })
	case constraint.GT:
		return 0, sort.Search(len(es), func(i int) bool { return es[i].v >= x })
	}
	panic(fmt.Sprintf("core: %v is not an ordered comparison", op))
}

// passes reports whether T-set t satisfies the prefix constraints its
// candidate list does not already guarantee.
func (ix *pairIndex) passes(j *pairJoin, s int, t int32, lead int) bool {
	for o, c := range ix.ord {
		if o != lead && !j.match(c, s, t) {
			return false
		}
	}
	for _, c := range ix.rest {
		if !j.match(c, s, t) {
			return false
		}
	}
	return true
}

// exact reports whether candidates are already exactly the T-sets
// satisfying the prefix.
func (ix *pairIndex) exact() bool { return len(ix.rest) == 0 && len(ix.ord) <= 1 }
