package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"repro/cfq"
	"repro/internal/obs"
)

// The prepared-plan surface of the daemon: a byte-bounded cache of compiled
// queries keyed dataset × generation × canonical query, behind POST
// /v1/prepare. A plan-cache hit skips parsing and compilation — the
// prepared handle replays the compiled query.
var (
	mPlanHits      = obs.NewCounter("plan_cache_hits_total")
	mPlanMisses    = obs.NewCounter("plan_cache_misses_total")
	mPlanEvictions = obs.NewCounter("plan_cache_evictions_total")
	mPlanEntries   = obs.NewGauge("plan_cache_entries")
	mPlanBytes     = obs.NewGauge("plan_cache_bytes")
)

// planEntry is one cached prepared plan. The generation is part of the key
// (a mutation implicitly misses) and also stored explicitly so the
// prepared-handle path can tell "stale" apart from "unknown".
type planEntry struct {
	key       string
	handle    string
	dataset   string
	gen       uint64
	canonical string
	query     *cfq.Query
	prepared  *cfq.Prepared
	strategy  cfq.Strategy
	timeout   time.Duration
	size      int64
}

// planKey mirrors resultKey's shape for the plan cache.
func planKey(dataset string, gen uint64, canonical string) string {
	return resultKey(dataset, gen, "plan", "", canonical)
}

// planHandle derives the deterministic wire handle for a cache key: same
// dataset, generation, and canonical query ⇒ same handle, so clients can
// re-prepare idempotently.
func planHandle(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "p" + hex.EncodeToString(sum[:8])
}

// planCache is the prepared-plan LRU: key → entry, plus a handle index for
// the /v1/query prepared path. Bounded by entries and bytes like the result
// cache; the byte estimate charges the canonical text and a fixed per-plan
// overhead (the compiled CFQ holds pointers into the dataset snapshot,
// which the registry keeps alive anyway).
type planCache struct {
	mu         sync.Mutex
	entries    map[string]*list.Element
	handles    map[string]*list.Element
	lru        *list.List
	bytes      int64
	maxBytes   int64
	maxEntries int

	hits, misses, evictions int64
}

const planEntryOverhead = 1024

func newPlanCache(maxEntries int, maxBytes int64) *planCache {
	return &planCache{
		entries:    map[string]*list.Element{},
		handles:    map[string]*list.Element{},
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

func (c *planCache) enabled() bool { return c.maxEntries > 0 || c.maxBytes > 0 }

// get returns the cached plan for a key and bumps its recency.
func (c *planCache) get(key string) (*planEntry, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		mPlanMisses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	mPlanHits.Inc()
	return el.Value.(*planEntry), true
}

// byHandle returns the cached plan for a wire handle. It does not count as
// a hit/miss — the handle path's staleness outcome is what matters there.
func (c *planCache) byHandle(handle string) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.handles[handle]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry), true
}

// put stores a prepared plan, evicting LRU entries to fit the bounds.
func (c *planCache) put(e *planEntry) {
	if !c.enabled() {
		return
	}
	e.size = int64(len(e.key)+len(e.canonical)) + planEntryOverhead
	if c.maxBytes > 0 && e.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		old := el.Value.(*planEntry)
		c.bytes += e.size - old.size
		delete(c.handles, old.handle)
		el.Value = e
		c.handles[e.handle] = el
		c.lru.MoveToFront(el)
	} else {
		el := c.lru.PushFront(e)
		c.entries[e.key] = el
		c.handles[e.handle] = el
		c.bytes += e.size
	}
	for (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el, el.Value.(*planEntry))
		c.evictions++
		mPlanEvictions.Inc()
	}
	c.publishLocked()
}

// invalidate drops every plan for the dataset (all generations). Called on
// mutation and drop, right next to the result cache's invalidation, so one
// generation bump retires both caches together.
func (c *planCache) invalidate(dataset string) {
	prefix := dataset + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*planEntry); len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			c.removeLocked(el, e)
		}
		el = next
	}
	c.publishLocked()
}

// drop removes one entry (a handle observed stale evicts eagerly).
func (c *planCache) drop(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value.(*planEntry) == e {
		c.removeLocked(el, e)
		c.publishLocked()
	}
}

func (c *planCache) removeLocked(el *list.Element, e *planEntry) {
	c.lru.Remove(el)
	delete(c.entries, e.key)
	delete(c.handles, e.handle)
	c.bytes -= e.size
}

// setMaxBytes retunes the byte bound at runtime (memory watchdog brownout
// and recovery), evicting immediately to fit.
func (c *planCache) setMaxBytes(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el, el.Value.(*planEntry))
		c.evictions++
		mPlanEvictions.Inc()
	}
	c.publishLocked()
}

func (c *planCache) publishLocked() {
	mPlanEntries.Set(int64(c.lru.Len()))
	mPlanBytes.Set(c.bytes)
}

func (c *planCache) stats() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]int64{
		"hits":      c.hits,
		"misses":    c.misses,
		"evictions": c.evictions,
		"entries":   int64(c.lru.Len()),
		"bytes":     c.bytes,
	}
}

// preparePlan resolves a query to a prepared plan through the plan cache: a
// hit returns the cached plan; a miss compiles the query and stores it keyed
// to the dataset generation. The store is skipped when the generation moved
// mid-prepare, exactly like the result cache's gen-unchanged check.
func (s *Server) preparePlan(dataset string, gen uint64, canonical string,
	q *cfq.Query, strat cfq.Strategy, timeout time.Duration) (*planEntry, bool, error) {
	key := planKey(dataset, gen, canonical)
	if e, ok := s.plans.get(key); ok {
		return e, true, nil
	}
	p, err := q.Prepare(strat)
	if err != nil {
		return nil, false, err
	}
	e := &planEntry{
		key:       key,
		handle:    planHandle(key),
		dataset:   dataset,
		gen:       gen,
		canonical: canonical,
		query:     q,
		prepared:  p,
		strategy:  p.Strategy(),
		timeout:   timeout,
	}
	if cur, ok := s.reg.Generation(dataset); ok && cur == gen {
		s.plans.put(e)
	}
	return e, false, nil
}

// handlePrepare serves POST /v1/prepare: parse and compile the query once,
// cache the plan, and return the handle clients pass back as "prepared" on
// /v1/query. Preparing the same canonical query against the same dataset
// generation returns the same handle with cached=true and no further
// compilation.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	if s.draining.Load() {
		s.writeError(w, sc, http.StatusServiceUnavailable,
			&ErrorBody{Code: CodeDraining, Message: "server is shutting down"})
		return
	}
	if !s.plans.enabled() {
		s.writeError(w, sc, http.StatusUnprocessableEntity,
			&ErrorBody{Code: CodeBadRequest, Message: "plan cache disabled on this server"})
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, sc, maxQueryBody, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	if req.Prepared != "" {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: "prepare does not accept a prepared handle"})
		return
	}
	sc.dataset = req.Dataset
	ds, _, gen, err := s.reg.Lookup(req.Dataset)
	if err != nil {
		s.writeError(w, sc, http.StatusNotFound,
			&ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		return
	}
	q, strat, timeout, err := s.buildQuery(ds, &req)
	if err != nil {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	canonical := q.Canonical()
	sc.gen, sc.canonical = gen, canonical

	entry, cached, err := s.preparePlan(req.Dataset, gen, canonical, q, strat, timeout)
	if err != nil {
		s.writeEvalError(w, sc, err)
		return
	}
	sc.strategy = entry.strategy.String()
	resp := &PrepareResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Dataset:    req.Dataset,
		Generation: gen,
		Handle:     entry.handle,
		Strategy:   entry.strategy.String(),
		Cached:     cached,
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// resolvePrepared looks a wire handle up for execution, enforcing the
// staleness contract: a handle whose dataset generation has moved (or whose
// dataset is gone) is a structured 409 stale_generation — the server never
// silently serves a stale snapshot's answer — and the dead entry is evicted.
// Returns the HTTP status to write on failure (0 on success).
func (s *Server) resolvePrepared(sc *reqScope, req *QueryRequest) (*planEntry, int, *ErrorBody) {
	e, ok := s.plans.byHandle(req.Prepared)
	if !ok {
		return nil, http.StatusNotFound, &ErrorBody{
			Code: CodeUnknownPrepared, Message: "unknown prepared handle (expired, evicted, or never issued here)"}
	}
	if req.Dataset != "" && req.Dataset != e.dataset {
		return nil, http.StatusBadRequest, &ErrorBody{
			Code: CodeBadRequest, Message: "prepared handle belongs to dataset " + e.dataset}
	}
	if cur, ok := s.reg.Generation(e.dataset); !ok || cur != e.gen {
		s.plans.drop(e)
		return nil, http.StatusConflict, &ErrorBody{
			Code:    CodeStaleGeneration,
			Message: "prepared plan is stale: dataset " + e.dataset + " has a newer generation; re-prepare"}
	}
	return e, 0, nil
}
