package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/obs/workload"
)

// The workload collector: every completed /v1/query appends one journal
// record (features, classification, chosen strategy, phase deltas,
// attributed pruning, outcome). It happens after the response is written;
// the client never waits on profiling.
type workloadCollector struct {
	journal *workload.Journal

	// profiles caches the per-query profile (class key, enforcement sites,
	// feature vector) by dataset × generation × canonical text: profiling
	// costs one database scan (cfq.Query.ProfileQuery), so repeated queries
	// pay it once per generation.
	profMu   sync.Mutex
	profiles map[string]*queryProfile
}

// maxProfileCache bounds the profile cache; on overflow the cache resets
// (profiles are one scan to rebuild — simpler than LRU bookkeeping).
const maxProfileCache = 512

type queryProfile struct {
	class    string
	sites    []string
	features *obs.QueryFeatures
}

// newWorkloadCollector wires the journal (disk ring under cfg.WorkloadDir,
// falling back to memory-only like the slow log).
func newWorkloadCollector(cfg Config) *workloadCollector {
	journal, err := workload.OpenJournal(workload.Options{Dir: cfg.WorkloadDir})
	if err != nil {
		if cfg.Logger != nil {
			cfg.Logger.Error("workload journal disk ring unavailable; keeping records in memory only",
				slog.String("dir", cfg.WorkloadDir), slog.Any("err", err))
		}
		journal, _ = workload.OpenJournal(workload.Options{})
	}
	return &workloadCollector{journal: journal, profiles: map[string]*queryProfile{}}
}

// profile resolves (computing and caching if needed) the query's profile.
// Returns nil when profiling fails — the journal record then carries run
// actuals without features, which is still useful ground truth.
func (wc *workloadCollector) profile(sc *reqScope) *queryProfile {
	key := sc.dataset + "\xff" + strconv.FormatUint(sc.gen, 10) + "\xff" + sc.canonical
	wc.profMu.Lock()
	if p, ok := wc.profiles[key]; ok {
		wc.profMu.Unlock()
		return p
	}
	wc.profMu.Unlock()
	rep, feats, err := sc.query.ProfileQuery(sc.strat)
	if err != nil {
		return nil
	}
	p := &queryProfile{
		class:    workload.ClassKey(rep),
		sites:    workload.EnforcementSites(rep),
		features: feats,
	}
	wc.profMu.Lock()
	if len(wc.profiles) >= maxProfileCache {
		wc.profiles = map[string]*queryProfile{}
	}
	wc.profiles[key] = p
	wc.profMu.Unlock()
	return p
}

// observeWorkload journals one finished /v1/query request. Called from the
// instrument middleware after the response is written.
func (s *Server) observeWorkload(sc *reqScope, endpoint string, status int, dur time.Duration) {
	wc := s.workload
	if wc == nil || endpoint != kindQuery || sc.query == nil {
		return
	}
	prof := wc.profile(sc)
	rec := &workload.Record{
		Kind:             workload.KindQuery,
		Time:             time.Now(),
		TraceID:          sc.tc.TraceID,
		RequestID:        sc.reqID,
		Dataset:          sc.dataset,
		Generation:       sc.gen,
		QueryHash:        workload.QueryHash(sc.canonical),
		Strategy:         sc.strategy,
		Status:           status,
		Code:             sc.code,
		Cached:           sc.cached,
		DurationMS:       float64(dur) / float64(time.Millisecond),
		CandidatesPruned: sc.pruned,
	}
	if prof != nil {
		rec.Class = prof.class
		rec.EnforcedAt = prof.sites
		rec.Features = prof.features
	}
	if sc.tracer != nil {
		rec.Phases = telemetry.PhasesFromReport(sc.tracer.Report())
	}
	if sc.prune != nil {
		rec.PruneSites = sc.prune.Snapshot()
	}
	wc.journal.Append(rec)
}

// Close closes the journal.
func (wc *workloadCollector) Close() error {
	if wc == nil {
		return nil
	}
	return wc.journal.Close()
}

// handleWorkload serves GET /v1/workload: journal state and the live
// per-class feature/latency rollups.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	resp := &WorkloadResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Enabled: s.workload != nil,
	}
	if wc := s.workload; wc != nil {
		st := wc.journal.State()
		resp.Journal = &st
		resp.Classes = wc.journal.Rollups()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// workloadStatz is the /statz section.
func (s *Server) workloadStatz() map[string]any {
	wc := s.workload
	out := map[string]any{"enabled": wc != nil}
	if wc == nil {
		return out
	}
	out["journal"] = wc.journal.State()
	return out
}
