// Package mine implements the levelwise (Apriori-style) frequent-itemset
// engine that every strategy in this repository is built on: plain Apriori,
// the Apriori⁺ baseline, CAP, and the paper's optimized CFQ strategies.
//
// The engine supports the hooks that constrained mining needs:
//
//   - a restricted item Domain (where universal succinct constraints have
//     already filtered the items — the MGF's selection step);
//   - a Required item class realizing one existential succinct predicate:
//     only sets containing at least one required item are candidates, and
//     the internal item order places required items first so the prefix
//     join remains complete (the generate-only property of succinctness);
//   - an anti-monotone CandidateFilter consulted before a candidate is
//     counted (frequency-style pushing of anti-monotone constraints,
//     including the Jmax-derived sum bounds of Section 5.2);
//   - step-at-a-time execution (Step) so two lattices can be dovetailed.
//
// The engine works internally in a dense "rank" space ordered
// required-items-first and converts back to original item space at the API
// boundary.
package mine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// GenMode selects the candidate generation algorithm.
type GenMode int

const (
	// GenPrefixJoin joins frequent k-sets sharing a (k-1)-prefix — the
	// classic Apriori generation, kept complete under constraints by the
	// required-first item order.
	GenPrefixJoin GenMode = iota
	// GenExtension extends each frequent k-set with every later frequent
	// item. It generates a superset of the prefix-join candidates (pruned
	// back by the subset test) and exists as an ablation baseline.
	GenExtension
)

// Config configures a Levelwise run.
type Config struct {
	// DB is the transaction database. Required.
	DB *txdb.DB
	// MinSupport is the absolute support threshold; values below 1 are
	// treated as 1.
	MinSupport int
	// Domain restricts mining to these items. Nil means all active items.
	Domain itemset.Set
	// Required, when non-nil, is an existential item class: only sets
	// containing at least one Required item are valid, generated and
	// counted (beyond level 1, which is always counted in full since L1 is
	// needed both for joins and for the quasi-succinct reduction constants).
	Required itemset.Set
	// ReportValid, when non-nil, further filters which frequent sets are
	// *reported* as valid. Sets failing it still participate in candidate
	// generation (it encodes additional existential classes, which are not
	// anti-monotone). Called in original item space.
	ReportValid func(itemset.Set) bool
	// CandidateFilter, when non-nil, is consulted before counting a
	// candidate; rejected candidates are discarded and never extended, so
	// the predicate must be anti-monotone. Called in original item space.
	CandidateFilter func(level int, s itemset.Set) bool
	// MaxLevel stops mining after this level; 0 means unlimited.
	MaxLevel int
	// GenMode selects the candidate generation algorithm.
	GenMode GenMode
	// Workers sets the number of goroutines used for support counting.
	// Values below 2 keep counting serial; parallel counting partitions
	// the transactions and sums per-worker counts, so results are
	// identical either way.
	Workers int
	// PresetL1, when non-nil, supplies already-counted level-1 results
	// (original item space). The first Step then performs no counting pass
	// and charges no candidates: this is how the CFQ optimizer applies the
	// quasi-succinct reduction "immediately after the first iteration of
	// counting" without paying for level 1 twice. Entries outside Domain
	// are ignored; entries failing CandidateFilter are dropped.
	PresetL1 []Counted
	// Budget, when non-nil, caps the resources the run may consume; an
	// overrun aborts mining with a *BudgetError. Budgets shared across
	// miners accumulate consumption globally.
	Budget *Budget
	// Stats, when non-nil, accumulates work counters.
	Stats *Stats
	// Label, when non-empty, prefixes the miner's trace span names (the
	// CFQ engine labels its dovetailed lattices "S" and "T").
	Label string
	// RequiredSite, when non-empty, is the obs.PruneSet site charged for
	// frequent singletons excluded from the valid output by the Required
	// class (defaults to "<label>:generate"). CAP sets it to name the
	// existential constraint that contributed the class.
	//
	// Pruning attribution contract: the engine increments
	// Stats.CandidatesPruned for every discarded candidate and charges the
	// sites it owns (frequency, Required exclusion) itself; a rejection by
	// CandidateFilter or ReportValid is the *closure's* site to charge —
	// a charging closure must charge the context's PruneSet exactly once
	// per false return, so per-site sums keep matching the total.
	RequiredSite string
}

// Counted is a frequent itemset together with its support.
type Counted struct {
	Set     itemset.Set
	Support int
}

// Levelwise is a resumable levelwise miner. Create with New, then call Step
// until done (or RunAll). The context passed to New governs the whole run:
// Step checks it (and the configured Budget) at level and batch boundaries
// and unwinds with a wrapped ctx.Err() or *BudgetError. A miner that has
// failed stays failed; re-running requires a fresh miner.
type Levelwise struct {
	cfg        Config
	stats      *Stats
	guard      *Guard
	tracer     *obs.Tracer
	prune      *obs.PruneSet
	freqSite   string    // pruning site for infrequent candidates
	reqSite    string    // pruning site for Required-excluded singletons
	tx         [][]int32 // transactions projected to rank space
	rankToItem []itemset.Item
	nRequired  int // ranks < nRequired are Required items
	level      int
	done       bool
	err        error

	// State of the previous level (rank space, lex order).
	prevSets [][]int32
	prevSup  []int
	prevKeys map[string]int // rank-set key → index in prevSets

	l1Ranks []int32 // frequent item ranks after level 1 (all, incl. non-required)
	l1Sup   []int   // supports parallel to l1Ranks

	lastFrequent []Counted // all frequent sets of the last completed level
}

// New validates cfg and prepares a miner. The database is projected onto the
// domain once (one scan). ctx governs the whole run: New and every
// subsequent Step observe its cancellation at checkpoint boundaries.
func New(ctx context.Context, cfg Config) (*Levelwise, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("mine: Config.DB is nil")
	}
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &Stats{}
	}
	domain := cfg.Domain
	if domain == nil {
		domain = cfg.DB.ActiveItems()
	}
	required := cfg.Required
	if required != nil {
		required = required.Intersect(domain)
	}

	// Assign ranks: required items first, then the rest, each ascending.
	rankToItem := make([]itemset.Item, 0, domain.Len())
	if required != nil {
		rankToItem = append(rankToItem, required...)
		rankToItem = append(rankToItem, domain.Minus(required)...)
	} else {
		rankToItem = append(rankToItem, domain...)
	}
	nRequired := 0
	if required != nil {
		nRequired = required.Len()
	}
	maxItem := itemset.Item(-1)
	for _, it := range domain {
		if it > maxItem {
			maxItem = it
		}
	}
	itemToRank := make([]int32, maxItem+1)
	for i := range itemToRank {
		itemToRank[i] = -1
	}
	for r, it := range rankToItem {
		itemToRank[it] = int32(r)
	}

	guard := NewGuard(ctx, cfg.Budget, stats)
	tracer := obs.FromContext(ctx)

	// The projection span covers the setup scan; its stats delta isolates
	// the projection cost from the per-level counting spans that follow.
	var sp *obs.Span
	if tracer != nil {
		sp = tracer.Start(spanName(cfg.Label, "project"),
			obs.Int("domain", domain.Len())).WithStats(stats.Counters())
	}

	// Project the database (one accounted scan, checked per batch). The
	// rows are windows of one array rather than one allocation each.
	tx := make([][]int32, 0, cfg.DB.Len())
	flat := make([]int32, 0, cfg.DB.Size())
	err := cfg.DB.ScanErr(func(tid int, t itemset.Set) error {
		if tid%checkBatch == 0 {
			if err := guard.Check("levelwise: database projection"); err != nil {
				return err
			}
		}
		start := len(flat)
		for _, it := range t {
			if int(it) < len(itemToRank) && itemToRank[it] >= 0 {
				flat = append(flat, itemToRank[it])
			}
		}
		row := flat[start:len(flat):len(flat)]
		slices.Sort(row)
		tx = append(tx, row)
		return nil
	})
	if err != nil {
		sp.End(stats.Counters())
		return nil, err
	}
	stats.DBScans++
	sp.End(stats.Counters())

	reqSite := cfg.RequiredSite
	if reqSite == "" {
		reqSite = spanName(cfg.Label, "generate")
	}
	return &Levelwise{
		cfg:        cfg,
		stats:      stats,
		guard:      guard,
		tracer:     tracer,
		prune:      obs.PruningFromContext(ctx),
		freqSite:   spanName(cfg.Label, "frequency"),
		reqSite:    reqSite,
		tx:         tx,
		rankToItem: rankToItem,
		nRequired:  nRequired,
	}, nil
}

// spanName prefixes a span name with the miner's label ("S:level-2").
func spanName(label, name string) string {
	if label == "" {
		return name
	}
	return label + ":" + name
}

// Level returns the last completed level (0 before the first Step).
func (l *Levelwise) Level() int { return l.level }

// Done reports whether mining has finished (no candidates remain or
// MaxLevel reached).
func (l *Levelwise) Done() bool { return l.done }

// LastFrequent returns every frequent set of the last completed level
// (original item space), including sets that are not valid — the raw
// material for Jmax summaries, which need the complete level. The slice is
// owned by the engine; callers must not mutate it.
func (l *Levelwise) LastFrequent() []Counted { return l.lastFrequent }

// FrequentItems returns, after the first Step, all frequent items of the
// domain in original item space — the set L1 whose attribute projections
// provide the quasi-succinct reduction constants.
func (l *Levelwise) FrequentItems() itemset.Set {
	items := make([]itemset.Item, len(l.l1Ranks))
	for i, r := range l.l1Ranks {
		items[i] = l.rankToItem[r]
	}
	return itemset.New(items...)
}

// FrequentItemCounts returns, after the first Step, every frequent item of
// the domain as a counted singleton — the PresetL1 input for a re-planned
// engine.
func (l *Levelwise) FrequentItemCounts() []Counted {
	out := make([]Counted, len(l.l1Ranks))
	for i, r := range l.l1Ranks {
		out[i] = Counted{Set: itemset.New(l.rankToItem[r]), Support: l.l1Sup[i]}
	}
	return out
}

// toOrig converts a rank-space set to a sorted original-space itemset.
func (l *Levelwise) toOrig(rs []int32) itemset.Set {
	items := make([]itemset.Item, len(rs))
	for i, r := range rs {
		items[i] = l.rankToItem[r]
	}
	return itemset.New(items...)
}

// rankKey builds a canonical key for a rank-space set.
func rankKey(rs []int32) string {
	b := make([]byte, 4*len(rs))
	for i, v := range rs {
		u := uint32(v)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
	return string(b)
}

// Step advances one level and returns the valid frequent sets discovered at
// that level (original item space, after ReportValid), plus whether mining
// has finished. Calling Step after completion returns (nil, true, nil).
//
// A non-nil error means the run was cancelled (a wrapped ctx.Err()) or
// exceeded its budget (*BudgetError with partial Stats); the miner is then
// permanently done and every later Step returns the same error.
func (l *Levelwise) Step() ([]Counted, bool, error) {
	if l.err != nil {
		return nil, true, l.err
	}
	if l.done {
		return nil, true, nil
	}
	// One span per mining level, carrying the level's Stats delta (the
	// per-phase counting/checking cost the ccc analysis argues about).
	// With tracing disabled this is a single nil comparison.
	var sp *obs.Span
	if l.tracer != nil {
		sp = l.tracer.Start(spanName(l.cfg.Label, fmt.Sprintf("level-%d", l.level+1))).
			WithStats(l.stats.Counters())
	}
	var out []Counted
	var err error
	if l.level == 0 {
		out, err = l.stepOne()
	} else {
		out, err = l.stepK()
	}
	if sp != nil {
		sp.SetAttrs(obs.Int("frequent", len(l.lastFrequent)), obs.Int("valid", len(out)))
		sp.End(l.stats.Counters())
	}
	if err != nil {
		l.err = err
		l.done = true
		return nil, true, err
	}
	l.finishLevelCheck()
	return out, l.done, nil
}

// Err returns the error that stopped the run, if any.
func (l *Levelwise) Err() error { return l.err }

func (l *Levelwise) finishLevelCheck() {
	if l.cfg.MaxLevel > 0 && l.level >= l.cfg.MaxLevel {
		l.done = true
	}
	if len(l.prevSets) == 0 {
		l.done = true
	}
}

// stepOne establishes level 1: every domain item is counted (optionally
// pre-filtered by the anti-monotone CandidateFilter), unless PresetL1
// supplies the counts.
func (l *Levelwise) stepOne() ([]Counted, error) {
	if err := l.guard.Check("level 1: candidate generation"); err != nil {
		return nil, err
	}
	n := len(l.rankToItem)
	counts := make([]int, n)
	// counted marks ranks that were candidates of *this* run: only they can
	// be frequency-pruned below. Preset ranks were counted by an earlier
	// run, which already charged their frequency pruning.
	counted := make([]bool, n)
	if l.cfg.PresetL1 != nil {
		rankOf := make(map[itemset.Item]int, n)
		for r, it := range l.rankToItem {
			rankOf[it] = r
		}
		for _, c := range l.cfg.PresetL1 {
			if c.Set.Len() != 1 {
				continue
			}
			r, ok := rankOf[c.Set[0]]
			if !ok {
				continue
			}
			if l.cfg.CandidateFilter != nil && !l.cfg.CandidateFilter(1, c.Set) {
				l.stats.CandidatesPruned++ // site charged by the filter closure
				continue
			}
			counts[r] = c.Support
		}
	} else {
		eligible := make([]bool, n)
		for r := 0; r < n; r++ {
			if l.cfg.CandidateFilter != nil &&
				!l.cfg.CandidateFilter(1, itemset.New(l.rankToItem[r])) {
				l.stats.CandidatesPruned++ // site charged by the filter closure
				continue
			}
			eligible[r] = true
			counted[r] = true
			l.stats.CandidatesCounted++
		}
		for start := 0; start < len(l.tx); start += checkBatch {
			if err := l.guard.Check("level 1: counting"); err != nil {
				return nil, err
			}
			end := start + checkBatch
			if end > len(l.tx) {
				end = len(l.tx)
			}
			for _, t := range l.tx[start:end] {
				for _, r := range t {
					if eligible[r] {
						counts[r]++
					}
				}
			}
		}
		l.stats.DBScans++
	}

	var out []Counted
	l.prevSets = nil
	l.prevSup = nil
	l.prevKeys = map[string]int{}
	l.l1Ranks = nil
	l.l1Sup = nil
	l.lastFrequent = nil
	for r := 0; r < n; r++ {
		// MinSupport >= 1, so ineligible ranks (count 0) are excluded here.
		if counts[r] < l.cfg.MinSupport {
			if counted[r] {
				l.stats.CandidatesPruned++
				l.prune.Charge(l.freqSite, 1)
			}
			continue
		}
		l.stats.FrequentSets++
		l.stats.LatticeBytes += setBytes(1)
		l.l1Ranks = append(l.l1Ranks, int32(r))
		l.l1Sup = append(l.l1Sup, counts[r])
		l.lastFrequent = append(l.lastFrequent,
			Counted{Set: itemset.New(l.rankToItem[r]), Support: counts[r]})
		// A singleton is valid iff it is required (when a Required class
		// exists); invalid singletons still feed level-2 generation.
		valid := l.nRequired == 0 || r < l.nRequired
		if valid {
			rs := []int32{int32(r)}
			l.prevKeys[rankKey(rs)] = len(l.prevSets)
			l.prevSets = append(l.prevSets, rs)
			l.prevSup = append(l.prevSup, counts[r])
			orig := itemset.New(l.rankToItem[r])
			if l.cfg.ReportValid == nil || l.cfg.ReportValid(orig) {
				l.stats.ValidSets++
				out = append(out, Counted{Set: orig, Support: counts[r]})
			} else {
				l.stats.CandidatesPruned++ // site charged by ReportValid
			}
		} else {
			l.stats.CandidatesPruned++
			l.prune.Charge(l.reqSite, 1)
		}
	}
	l.level = 1
	return out, nil
}

// stepK generates, prunes and counts level k+1 candidates.
func (l *Levelwise) stepK() ([]Counted, error) {
	k := l.level
	if err := l.guard.Check(fmt.Sprintf("level %d: candidate generation", k+1)); err != nil {
		return nil, err
	}
	var cands [][]int32
	var err error
	if k == 1 {
		cands, err = l.genLevel2()
	} else {
		switch l.cfg.GenMode {
		case GenExtension:
			cands, err = l.genExtension(k)
		default:
			cands, err = l.genPrefixJoin(k)
		}
	}
	if err != nil {
		return nil, err
	}

	// Anti-monotone candidate filter.
	if l.cfg.CandidateFilter != nil {
		kept := cands[:0]
		for i, c := range cands {
			if i%genCheckBatch == 0 {
				if err := l.guard.Check(fmt.Sprintf("level %d: candidate filtering", k+1)); err != nil {
					return nil, err
				}
			}
			if l.cfg.CandidateFilter(k+1, l.toOrig(c)) {
				kept = append(kept, c)
			} else {
				l.stats.CandidatesPruned++ // site charged by the filter closure
			}
		}
		cands = kept
	}

	l.level = k + 1
	if len(cands) == 0 {
		l.prevSets, l.prevSup, l.prevKeys = nil, nil, map[string]int{}
		l.lastFrequent = nil
		return nil, nil
	}

	// Charge the candidates before counting them: the in-counting
	// checkpoints then enforce MaxCandidates at batch granularity instead
	// of discovering a whole level's overrun only after its DB scan.
	l.stats.CandidatesCounted += int64(len(cands))
	counts, err := l.countCandidates(cands, k+1)
	if err != nil {
		return nil, err
	}
	l.stats.DBScans++

	var out []Counted
	newSets := make([][]int32, 0, len(cands))
	newSup := make([]int, 0, len(cands))
	newKeys := make(map[string]int, len(cands))
	l.lastFrequent = nil
	for i, c := range cands {
		if counts[i] < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.prune.Charge(l.freqSite, 1)
			continue
		}
		l.stats.FrequentSets++
		l.stats.LatticeBytes += setBytes(len(c))
		newKeys[rankKey(c)] = len(newSets)
		newSets = append(newSets, c)
		newSup = append(newSup, counts[i])
		orig := l.toOrig(c)
		l.lastFrequent = append(l.lastFrequent, Counted{Set: orig, Support: counts[i]})
		if l.cfg.ReportValid == nil || l.cfg.ReportValid(orig) {
			l.stats.ValidSets++
			out = append(out, Counted{Set: orig, Support: counts[i]})
		} else {
			l.stats.CandidatesPruned++ // site charged by ReportValid
		}
	}
	l.prevSets, l.prevSup, l.prevKeys = newSets, newSup, newKeys
	return out, nil
}

// genCheckBatch is how many candidates a generation or filtering loop
// produces between checkpoints: prefix boundaries are too fine to check
// individually, whole levels too coarse on wide lattices.
const genCheckBatch = 8192

// genLevel2 pairs frequent items; when a Required class exists the first
// element must be required (required items hold the lowest ranks, so this
// enumerates exactly the valid pairs).
func (l *Levelwise) genLevel2() ([][]int32, error) {
	var cands [][]int32
	for i, a := range l.l1Ranks {
		if l.nRequired > 0 && int(a) >= l.nRequired {
			break // no required item can follow: ranks are sorted
		}
		if err := l.guard.Check("level 2: candidate generation"); err != nil {
			return nil, err
		}
		for _, b := range l.l1Ranks[i+1:] {
			cands = append(cands, []int32{a, b})
		}
	}
	return cands, nil
}

// genPrefixJoin joins frequent valid k-sets sharing their first k-1 ranks
// and applies the validity-aware subset prune. Checkpoints fall on prefix
// boundaries, batched by generated candidates.
func (l *Levelwise) genPrefixJoin(k int) ([][]int32, error) {
	var cands [][]int32
	nextCheck := 0
	sets := l.prevSets
	for i := 0; i < len(sets); i++ {
		if len(cands) >= nextCheck {
			if err := l.guard.Check(fmt.Sprintf("level %d: prefix join", k+1)); err != nil {
				return nil, err
			}
			nextCheck = len(cands) + genCheckBatch
		}
		for j := i + 1; j < len(sets); j++ {
			if !samePrefix(sets[i], sets[j], k-1) {
				break // lex order: once the prefix changes it stays changed
			}
			c := make([]int32, k+1)
			copy(c, sets[i])
			c[k] = sets[j][k-1] // lex order ⇒ sets[j] has the larger tail
			if l.subsetPrune(c) {
				cands = append(cands, c)
			}
		}
	}
	return cands, nil
}

// genExtension extends each frequent valid k-set with every later frequent
// item (ablation baseline; same output after pruning and counting).
func (l *Levelwise) genExtension(k int) ([][]int32, error) {
	var cands [][]int32
	nextCheck := 0
	seen := map[string]bool{}
	for _, s := range l.prevSets {
		if len(cands) >= nextCheck {
			if err := l.guard.Check(fmt.Sprintf("level %d: extension generation", k+1)); err != nil {
				return nil, err
			}
			nextCheck = len(cands) + genCheckBatch
		}
		last := s[len(s)-1]
		for _, r := range l.l1Ranks {
			if r <= last {
				continue
			}
			c := make([]int32, k+1)
			copy(c, s)
			c[k] = r
			key := rankKey(c)
			if seen[key] {
				continue
			}
			seen[key] = true
			if l.subsetPrune(c) {
				cands = append(cands, c)
			}
		}
	}
	// The counting trie requires lexicographic candidate order; extension
	// generation does not produce it naturally.
	sort.Slice(cands, func(i, j int) bool { return lexLess(cands[i], cands[j]) })
	return cands, nil
}

func lexLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// subsetPrune reports whether every *valid* k-subset of the (k+1)-candidate
// is frequent. Subsets without a required item were never counted and are
// exempt — this is the validity-aware pruning of constrained levelwise
// mining.
func (l *Levelwise) subsetPrune(c []int32) bool {
	k := len(c) - 1
	sub := make([]int32, k)
	for drop := 0; drop <= k; drop++ {
		copy(sub, c[:drop])
		copy(sub[drop:], c[drop+1:])
		if l.nRequired > 0 && int(sub[0]) >= l.nRequired {
			continue // subset lost its only required item: never counted
		}
		if _, ok := l.prevKeys[rankKey(sub)]; !ok {
			return false
		}
	}
	return true
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// trieNode is a node of the candidate hash-trie used for support counting.
// Children labels are sorted so a transaction can be matched by merging.
type trieNode struct {
	items []int32
	child []*trieNode // nil slots at the leaf level
	leaf  []int32     // candidate index at the leaf level, -1 otherwise
}

// countCandidates counts the supports of lexicographically sorted k-level
// candidates in one pass over the projected transactions. Serial counting
// checkpoints between transaction batches; parallel workers poll the
// context between batches (so cancellation stops them promptly) and the
// coordinator re-checks after they join, which keeps checkpoint numbering
// deterministic regardless of Workers.
func (l *Levelwise) countCandidates(cands [][]int32, k int) ([]int, error) {
	root := &trieNode{}
	for idx, c := range cands {
		n := root
		for depth := 0; depth < k; depth++ {
			v := c[depth]
			last := len(n.items) - 1
			if last >= 0 && n.items[last] == v {
				if depth == k-1 {
					// Duplicate candidate; generation prevents this.
					panic("mine: duplicate candidate in trie build")
				}
				n = n.child[last]
				continue
			}
			n.items = append(n.items, v)
			if depth == k-1 {
				n.child = append(n.child, nil)
				n.leaf = append(n.leaf, int32(idx))
			} else {
				nn := &trieNode{}
				n.child = append(n.child, nn)
				n.leaf = append(n.leaf, -1)
				n = nn
			}
		}
	}

	where := fmt.Sprintf("level %d: counting", k)
	workers := l.cfg.Workers
	if workers < 2 || len(l.tx) < 4*workers {
		counts := make([]int, len(cands))
		for start := 0; start < len(l.tx); start += checkBatch {
			if err := l.guard.Check(where); err != nil {
				return nil, err
			}
			end := start + checkBatch
			if end > len(l.tx) {
				end = len(l.tx)
			}
			countTrie(nil, root, k, l.tx[start:end], counts)
		}
		return counts, nil
	}
	// Parallel counting: partition the transactions, count into per-worker
	// slices against the shared read-only trie, then sum. Workers always
	// rejoin through wg.Wait — cancellation makes them return early, never
	// leak.
	if err := l.guard.Check(where); err != nil {
		return nil, err
	}
	ctx := l.guard.Ctx()
	per := make([][]int, workers)
	var wg sync.WaitGroup
	chunk := (len(l.tx) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(l.tx) {
			hi = len(l.tx)
		}
		if lo >= hi {
			continue
		}
		per[w] = make([]int, len(cands))
		wg.Add(1)
		go func(dst []int, txs [][]int32) {
			defer wg.Done()
			countTrie(ctx, root, k, txs, dst)
		}(per[w], l.tx[lo:hi])
	}
	wg.Wait()
	// A cancellation that stopped the workers early surfaces here, before
	// the partial per-worker counts can be used.
	if err := l.guard.Check(where); err != nil {
		return nil, err
	}
	counts := make([]int, len(cands))
	for _, p := range per {
		for i, v := range p {
			counts[i] += v
		}
	}
	return counts, nil
}

// countTrie counts the trie's candidates over the given transactions into
// counts. The trie is read-only during counting. A non-nil ctx is polled
// between transaction batches; on cancellation the partial counts are
// abandoned by the caller.
func countTrie(ctx context.Context, root *trieNode, k int, txs [][]int32, counts []int) {
	var walk func(n *trieNode, depth int, t []int32)
	walk = func(n *trieNode, depth int, t []int32) {
		i, j := 0, 0
		for i < len(n.items) && j < len(t) {
			// Not enough transaction items left to complete any candidate.
			if len(t)-j < k-depth {
				return
			}
			switch {
			case n.items[i] < t[j]:
				i++
			case n.items[i] > t[j]:
				j++
			default:
				if depth == k-1 {
					counts[n.leaf[i]]++
				} else {
					walk(n.child[i], depth+1, t[j+1:])
				}
				i++
				j++
			}
		}
	}
	for i, t := range txs {
		if ctx != nil && i%checkBatch == 0 && ctx.Err() != nil {
			return
		}
		if len(t) >= k {
			walk(root, 0, t)
		}
	}
}

// RunAll steps the miner to completion and returns the valid frequent sets
// per level (index 0 is level 1). On cancellation or budget exhaustion it
// returns the levels completed so far together with the error.
func (l *Levelwise) RunAll() ([][]Counted, error) {
	var levels [][]Counted
	for !l.done {
		sets, _, err := l.Step()
		if err != nil {
			return levels, err
		}
		if l.level > len(levels) {
			levels = append(levels, sets)
		}
	}
	// Trim trailing empty levels.
	for len(levels) > 0 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels, nil
}

// AllFrequent mines all frequent itemsets over the given domain with no
// constraints — the plain Apriori substrate. ctx cancellation and budget
// overruns abort the run at the next checkpoint.
func AllFrequent(ctx context.Context, db *txdb.DB, minSupport int, domain itemset.Set, budget *Budget, stats *Stats) ([][]Counted, error) {
	lw, err := New(ctx, Config{DB: db, MinSupport: minSupport, Domain: domain, Budget: budget, Stats: stats})
	if err != nil {
		return nil, err
	}
	levels, err := lw.RunAll()
	if err != nil {
		return nil, err
	}
	return levels, nil
}
