package workload

import (
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// Journal metrics. The record counter is labeled by record kind.
var (
	mJournalRecords = obs.NewCounterVec("workload_journal_records_total", "kind")
	mJournalDropped = obs.NewCounter("workload_journal_dropped_total")
)

// Options configures OpenJournal. Zero values get serving defaults.
type Options struct {
	// Dir is the on-disk ring directory ("" = in-memory only).
	Dir string
	// MemRecords bounds the in-memory ring served over the API
	// (default 256).
	MemRecords int
	// SegmentBytes rotates the active JSONL segment past this size
	// (default 8 MiB).
	SegmentBytes int64
	// Segments bounds the on-disk ring (default 4).
	Segments int
	// MaxClasses bounds the live rollup cardinality; classes beyond it fold
	// into telemetry.OverflowKey (default 64).
	MaxClasses int
}

func (o Options) withDefaults() Options {
	if o.MemRecords <= 0 {
		o.MemRecords = 256
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.Segments <= 0 {
		o.Segments = 4
	}
	if o.MaxClasses <= 0 {
		o.MaxClasses = 64
	}
	return o
}

// Journal is the workload record sink: an in-memory ring (served by
// GET /v1/workload), a bounded on-disk SegmentRing, and live per-class
// rollups. All methods are safe for concurrent use.
type Journal struct {
	opts Options

	mu       sync.Mutex
	mem      []*Record // ring, oldest first
	ring     *telemetry.SegmentRing
	classes  map[string]*classAgg
	appended int64
	dropped  int64
	closed   bool
}

// classAgg accumulates the live rollup for one class key (user-facing
// query records only).
type classAgg struct {
	count      int64
	errors     int64
	cached     int64
	sumMS      float64
	maxMS      float64
	sumPruned  int64
	strategies map[string]int64
	features   *obs.QueryFeatures // latest seen
}

// OpenJournal opens (creating if needed) the workload journal. With a Dir
// it continues the existing segment numbering, so restarts append rather
// than clobber.
func OpenJournal(opts Options) (*Journal, error) {
	j := &Journal{opts: opts.withDefaults(), classes: map[string]*classAgg{}}
	if j.opts.Dir == "" {
		return j, nil
	}
	ring, err := telemetry.OpenSegmentRing(j.opts.Dir, "journal", j.opts.SegmentBytes, j.opts.Segments)
	if err != nil {
		return nil, err
	}
	j.ring = ring
	return j, nil
}

// Append records one completed query. Disk failures drop the
// line (counted, never blocking the caller) — the journal is evidence, not
// a ledger.
func (j *Journal) Append(rec *Record) {
	if j == nil || rec == nil {
		return
	}
	if rec.Schema == 0 {
		rec.Schema = RecordSchema
	}
	line, err := json.Marshal(rec)
	if err != nil {
		mJournalDropped.Inc()
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		mJournalDropped.Inc()
		return
	}
	j.mem = append(j.mem, rec)
	if over := len(j.mem) - j.opts.MemRecords; over > 0 {
		j.mem = append(j.mem[:0], j.mem[over:]...)
	}
	j.appended++
	mJournalRecords.WithLabels(rec.Kind).Inc()
	j.foldLocked(rec)
	if j.ring != nil {
		if err := j.ring.Append(line); err != nil {
			j.dropped++
			mJournalDropped.Inc()
		}
	}
}

func (j *Journal) foldLocked(rec *Record) {
	if rec.Kind != KindQuery {
		return
	}
	key := rec.Class
	if key == "" {
		key = "unconstrained"
	}
	agg := j.classes[key]
	if agg == nil {
		if len(j.classes) >= j.opts.MaxClasses {
			key = telemetry.OverflowKey
			agg = j.classes[key]
		}
		if agg == nil {
			agg = &classAgg{strategies: map[string]int64{}}
			j.classes[key] = agg
		}
	}
	agg.count++
	if rec.Status >= 400 {
		agg.errors++
	}
	if rec.Cached {
		agg.cached++
	}
	agg.sumMS += rec.DurationMS
	if rec.DurationMS > agg.maxMS {
		agg.maxMS = rec.DurationMS
	}
	agg.sumPruned += rec.CandidatesPruned
	if rec.Strategy != "" {
		agg.strategies[rec.Strategy]++
	}
	if rec.Features != nil {
		agg.features = rec.Features
	}
}

// Recent returns up to n records, newest first. n <= 0 returns the whole
// memory ring.
func (j *Journal) Recent(n int) []*Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	total := len(j.mem)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*Record, 0, n)
	for i := total - 1; i >= total-n; i-- {
		out = append(out, j.mem[i])
	}
	return out
}

// ClassRollup is the folded per-class view served by GET /v1/workload.
type ClassRollup struct {
	Class      string             `json:"class"`
	Count      int64              `json:"count"`
	Errors     int64              `json:"errors,omitempty"`
	Cached     int64              `json:"cached,omitempty"`
	MeanMS     float64            `json:"mean_ms"`
	MaxMS      float64            `json:"max_ms"`
	MeanPruned float64            `json:"mean_pruned"`
	Strategies map[string]int64   `json:"strategies,omitempty"`
	Features   *obs.QueryFeatures `json:"features,omitempty"`
}

// Rollups snapshots the live per-class rollups, busiest class first.
func (j *Journal) Rollups() []ClassRollup {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ClassRollup, 0, len(j.classes))
	for key, agg := range j.classes {
		cr := ClassRollup{
			Class:      key,
			Count:      agg.count,
			Errors:     agg.errors,
			Cached:     agg.cached,
			MaxMS:      agg.maxMS,
			MeanMS:     agg.sumMS / float64(agg.count),
			MeanPruned: float64(agg.sumPruned) / float64(agg.count),
			Features:   agg.features,
		}
		if len(agg.strategies) > 0 {
			cr.Strategies = make(map[string]int64, len(agg.strategies))
			for s, n := range agg.strategies {
				cr.Strategies[s] = n
			}
		}
		out = append(out, cr)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Count != out[k].Count {
			return out[i].Count > out[k].Count
		}
		return out[i].Class < out[k].Class
	})
	return out
}

// State is the journal's introspection view (/statz, GET /v1/workload).
type State struct {
	Dir        string                      `json:"dir,omitempty"`
	MemRecords int                         `json:"mem_records"`
	Appended   int64                       `json:"appended"`
	Dropped    int64                       `json:"dropped,omitempty"`
	Classes    int                         `json:"classes"`
	Ring       *telemetry.SegmentRingState `json:"ring,omitempty"`
}

// State snapshots journal occupancy.
func (j *Journal) State() State {
	if j == nil {
		return State{}
	}
	j.mu.Lock()
	ring := j.ring
	st := State{
		Dir:        j.opts.Dir,
		MemRecords: len(j.mem),
		Appended:   j.appended,
		Dropped:    j.dropped,
		Classes:    len(j.classes),
	}
	j.mu.Unlock()
	if ring != nil {
		rs := ring.State()
		st.Ring = &rs
	}
	return st
}

// Close closes the on-disk ring. Further Appends are dropped (counted).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.ring == nil {
		return nil
	}
	err := j.ring.Close()
	j.ring = nil
	return err
}
