package cfq

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// Session supports the exploratory loop the two-phase architecture is
// designed around: a user poses a CFQ, inspects the answer, tightens or
// changes constraints, and asks again. A Session caches each variable
// domain's unconstrained frequent lattice (at the lowest support threshold
// seen), so every refinement — different constraints, higher thresholds —
// is answered by filtering the cache with zero database scans.
//
// The trade-off is deliberate: the first query on a domain costs about as
// much as Apriori⁺ (the cache must hold the *unconstrained* lattice to
// serve arbitrary future constraints), so a one-shot query is cheaper via
// Query.Run(Optimized). Sessions pay that once and then make the
// interactive loop free.
//
// A Session is safe for concurrent use: many goroutines may Run queries
// against it simultaneously (the pattern a query server relies on — one
// shared Session per dataset amortizes the lattice cache across all
// clients). Mutating the underlying Dataset invalidates the cache on the
// next Run. A run that is cancelled or runs out of budget writes nothing to
// the cache: retrying the same query on the same session mines afresh and
// returns the same result a new session would. A run that raced a dataset
// mutation never stores its (pre-mutation) lattice into the post-mutation
// cache.
//
// Long-lived servers bound the cache with SetCacheLimit: when the estimated
// cached lattice bytes exceed the limit, least-recently-used domains are
// evicted (surfaced in CacheStats), so a many-dataset daemon cannot grow
// without limit.
type Session struct {
	ds *Dataset

	mu       sync.Mutex
	db       *txdb.DB // the compiled database the cache was built from
	cache    map[string]*latticeEntry
	bytes    int64  // estimated bytes across all cached lattices
	maxBytes int64  // 0 = unbounded
	seq      uint64 // LRU clock: bumped on every lookup/store
	closed   bool   // Close ran: the cache stays empty

	// Lookup/eviction counters, guarded by mu.
	hits, misses, evictions int
}

type latticeEntry struct {
	minSup  int
	sets    []mine.Counted
	bytes   int64
	lastUse uint64
}

// NewSession starts an exploratory session over the dataset.
func NewSession(ds *Dataset) *Session {
	return &Session{ds: ds, cache: map[string]*latticeEntry{}}
}

// SetCacheLimit bounds the estimated bytes of cached lattice state
// (0 restores the default: unbounded). When an insert pushes the cache past
// the limit, least-recently-used entries are evicted until it fits; a
// single lattice larger than the whole limit is not cached at all, so the
// bound is strict. Evicted domains simply re-mine on next use.
func (s *Session) SetCacheLimit(maxBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = maxBytes
	s.evictLocked()
}

// Close empties the cache and keeps it empty: runs still in flight, and
// any later ones, complete normally but store nothing. It releases the
// cached lattices' bytes from the session_cache_bytes gauge, which is what
// a server needs when it retires a session (its dataset was replaced by a
// newer generation, or dropped). CacheStats keeps reporting the counters.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cache = map[string]*latticeEntry{}
	obs.MCacheBytes.Add(-s.bytes)
	s.bytes = 0
}

// CacheStats describes the session's lattice cache: lookup counters (one
// lookup per query side), LRU evictions, and current occupancy.
type CacheStats struct {
	// Hits and Misses count the cache lookups of runs that completed: a
	// run that fails after its lookups (cancelled in pair formation, say)
	// counts neither, even when it mined and cached a lattice.
	Hits, Misses int
	// Evictions counts lattices dropped by the SetCacheLimit bound
	// (including oversized lattices rejected at insert).
	Evictions int
	// Entries and Bytes describe current occupancy (Bytes is the same
	// estimate Stats.LatticeBytes uses).
	Entries int
	Bytes   int64
	// LimitBytes is the configured bound (0 = unbounded).
	LimitBytes int64
}

// CacheStats reports the cache counters and occupancy.
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Hits:       s.hits,
		Misses:     s.misses,
		Evictions:  s.evictions,
		Entries:    len(s.cache),
		Bytes:      s.bytes,
		LimitBytes: s.maxBytes,
	}
}

// Run evaluates the query against the session cache. It is
// RunContext(context.Background(), q).
func (s *Session) Run(q *Query) (*Result, error) {
	return s.RunContext(context.Background(), q)
}

// RunContext evaluates the query against the session cache under ctx, with
// the query's Budget (if any) spanning both sides' mining. Results are
// identical to q.Run with any strategy; only the work differs. An aborted
// run (cancellation or budget) leaves the cache exactly as it was.
func (s *Session) RunContext(ctx context.Context, q *Query) (res *Result, err error) {
	defer recoverToError(&err)
	if q == nil || q.ds != s.ds {
		return nil, fmt.Errorf("cfq: session and query use different datasets")
	}
	icfq, err := q.compile()
	if err != nil {
		return nil, err
	}

	// The compiled snapshot captured by compile() is this run's generation
	// token: the whole evaluation (staleness check, mining, cache stores)
	// keys off this one pointer, so a dataset mutation landing mid-run can
	// neither tear what we read nor let us poison the refreshed cache.
	db := icfq.DB
	s.mu.Lock()
	if s.db != db {
		// The dataset was recompiled (new transactions or attributes):
		// every cached lattice is stale.
		s.cache = map[string]*latticeEntry{}
		obs.MCacheBytes.Add(-s.bytes)
		s.bytes = 0
		s.db = db
	}
	s.mu.Unlock()

	// One budget pool for both sides of this evaluation.
	start := time.Now()
	budget := q.budget.internal(start)
	tracer := obs.FromContext(ctx)
	prune := obs.PruningFromContext(ctx)

	// Mining on a cache miss accumulates into the run's Stats directly, so a
	// session result's counters describe this run's actual work and its
	// CandidatesPruned stays equal to the per-site pruning attribution — the
	// same accounting contract the engine strategies keep.
	ires := &core.Result{}
	// Cache lookups are counted only once the run completes.
	var look cacheLookups
	sSets, err := s.side(ctx, "S", db, icfq.DomainS, icfq.MinSupportS, budget, &ires.Stats, &look)
	if err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, convertErr(err)
	}
	tSets, err := s.side(ctx, "T", db, icfq.DomainT, icfq.MinSupportT, budget, &ires.Stats, &look)
	if err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, convertErr(err)
	}
	// The filter spans attribute the generate-and-test pass over the
	// cached lattices — the session's whole set-computation cost.
	var fsp *obs.Span
	if tracer != nil {
		fsp = tracer.Start("S:filter", obs.Int("cached", len(sSets))).
			WithStats(ires.Stats.Counters())
	}
	ires.LevelsS = filterLattice(sSets, icfq.MinSupportS, icfq.ConstraintsS, &ires.Stats, prune, "S:filter")
	if fsp != nil {
		fsp.End(ires.Stats.Counters())
	}
	if tracer != nil {
		fsp = tracer.Start("T:filter", obs.Int("cached", len(tSets))).
			WithStats(ires.Stats.Counters())
	}
	ires.LevelsT = filterLattice(tSets, icfq.MinSupportT, icfq.ConstraintsT, &ires.Stats, prune, "T:filter")
	if fsp != nil {
		fsp.End(ires.Stats.Counters())
	}

	if err := core.FormPairs(ctx, icfq, ires); err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, err
	}
	s.mu.Lock()
	s.hits += look.hits
	s.misses += look.misses
	s.mu.Unlock()
	obs.MCacheHits.Add(int64(look.hits))
	publishRun(time.Since(start), &ires.Stats, nil)
	res = convertResult(ires)
	res.Report = tracer.Report()
	return res, nil
}

// cacheLookups tallies one run's cache lookups until the run completes.
type cacheLookups struct{ hits, misses int }

// side returns the cached unconstrained lattice for a domain, mining it if
// absent or cached at a higher threshold than requested, and records the
// lookup in look, which the caller commits once the run completes. The
// lookup is one critical section; mining happens outside the lock, and a
// failed mining run stores nothing — the cache is never poisoned by
// partial lattices. db is the compiled snapshot this run captured; a store
// is skipped when the cache has moved to a newer snapshot, so a slow run
// racing a dataset mutation cannot resurrect a stale lattice.
func (s *Session) side(ctx context.Context, label string, db *txdb.DB, domain itemset.Set, minSup int, budget *mine.Budget, stats *mine.Stats, look *cacheLookups) ([]mine.Counted, error) {
	key := "*"
	if domain != nil {
		key = domain.Key()
	}
	tracer := obs.FromContext(ctx)
	s.mu.Lock()
	if entry := s.cache[key]; entry != nil && entry.minSup <= minSup && s.db == db {
		look.hits++
		s.seq++
		entry.lastUse = s.seq
		sets := entry.sets
		s.mu.Unlock()
		if tracer != nil {
			tracer.Start(label+":cache-hit", obs.Int("sets", len(sets))).End(nil)
		}
		return sets, nil
	}
	s.mu.Unlock()
	// Published at the decision point (not after mining) so a mid-run
	// metrics scrape sees the lookup that is being served right now; the
	// CacheStats counter waits for the run to complete.
	obs.MCacheMisses.Inc()

	// The cache-miss span is structural: the labeled miner below emits its
	// own project/level delta spans as children.
	var msp *obs.Span
	if tracer != nil {
		msp = tracer.Start(label + ":cache-miss")
	}
	lw, err := mine.New(ctx, mine.Config{
		DB:         db,
		MinSupport: minSup,
		Domain:     domain,
		Budget:     budget,
		Label:      label,
		Stats:      stats,
	})
	if err != nil {
		msp.End(nil)
		return nil, err
	}
	levels, err := lw.RunAll()
	msp.End(nil)
	if err != nil {
		return nil, err
	}
	var sets []mine.Counted
	for _, lv := range levels {
		sets = append(sets, lv...)
	}
	look.misses++
	s.mu.Lock()
	// Keep the lowest-threshold lattice: it can serve every refinement.
	// Store only while the cache still describes the snapshot we mined —
	// a concurrent mutation flips s.db and this (now stale) lattice must
	// not survive the flip. A closed session stores nothing.
	if s.db == db && !s.closed {
		if old := s.cache[key]; old == nil || minSup < old.minSup {
			if old != nil {
				s.bytes -= old.bytes
				obs.MCacheBytes.Add(-old.bytes)
			}
			s.seq++
			entry := &latticeEntry{
				minSup:  minSup,
				sets:    sets,
				bytes:   latticeBytes(sets),
				lastUse: s.seq,
			}
			s.cache[key] = entry
			s.bytes += entry.bytes
			obs.MCacheBytes.Add(entry.bytes)
			s.evictLocked()
		}
	}
	s.mu.Unlock()
	return sets, nil
}

// evictLocked drops least-recently-used lattices until the cache fits the
// configured bound. Callers hold s.mu.
func (s *Session) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.cache) > 0 {
		var lruKey string
		var lru *latticeEntry
		for k, e := range s.cache {
			if lru == nil || e.lastUse < lru.lastUse {
				lruKey, lru = k, e
			}
		}
		delete(s.cache, lruKey)
		s.bytes -= lru.bytes
		obs.MCacheBytes.Add(-lru.bytes)
		s.evictions++
		obs.MCacheEvictions.Inc()
	}
}

// latticeBytes estimates the retained size of a cached lattice with the
// same per-set model Stats.LatticeBytes uses (rank-space set + original
// copy + map overhead), plus a fixed per-entry overhead.
func latticeBytes(sets []mine.Counted) int64 {
	total := int64(64)
	for _, c := range sets {
		total += int64(16*c.Set.Len() + 64)
	}
	return total
}

// filterLattice applies the support threshold and 1-var constraints to a
// cached lattice, regrouping by level (generate-and-test over the cache:
// each check is counted as a set-level constraint check, and each rejected
// set is a pruned candidate charged to the side's filter site).
func filterLattice(sets []mine.Counted, minSup int, cons []constraint.Constraint, stats *mine.Stats, prune *obs.PruneSet, site string) [][]mine.Counted {
	var levels [][]mine.Counted
	for _, c := range sets {
		if c.Support < minSup {
			stats.CandidatesPruned++
			prune.Charge(site, 1)
			continue
		}
		ok := true
		for _, con := range cons {
			stats.SetConstraintChecks++
			if !con.Satisfies(c.Set) {
				ok = false
				break
			}
		}
		if !ok {
			stats.CandidatesPruned++
			prune.Charge(site, 1)
			continue
		}
		for len(levels) < c.Set.Len() {
			levels = append(levels, nil)
		}
		levels[c.Set.Len()-1] = append(levels[c.Set.Len()-1], c)
	}
	for len(levels) > 0 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels
}
