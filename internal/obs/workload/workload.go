// Package workload is a durable per-query journal of served traffic: what
// ran, what it looked like, and what it cost.
//
// One JSONL record lands per completed /v1/query — canonical query hash,
// constraint classification and enforcement sites from BuildExplain, the
// estimate.go selectivity features with dataset L1 stats, the chosen
// strategy, per-phase span deltas, per-site pruning counts (summing to
// CandidatesPruned by the attribution contract), budget outcome, and cache
// hit/miss — persisted through the same SegmentRing machinery as the
// slow-query log.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"repro/internal/obs"
)

// RecordSchema versions the journal record shape.
const RecordSchema = 1

// KindQuery is the kind of a user-facing /v1/query completion, the only
// kind this build writes. Journals written by older builds also hold
// "shadow" records (re-runs under alternate strategies); they are read and
// listed, but never folded into the class rollups.
const KindQuery = "query"

// Record is one journal line.
type Record struct {
	Schema int       `json:"schema"`
	Kind   string    `json:"kind"`
	Time   time.Time `json:"time"`
	// TraceID / RequestID join the record to the request's telemetry.
	TraceID   string `json:"trace_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Dataset / Generation pin the snapshot the query ran against.
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation,omitempty"`
	// QueryHash identifies the canonical query text; Class is the
	// constraint-classification key (ClassKey) the rollups aggregate by.
	QueryHash string `json:"query_hash"`
	Class     string `json:"class,omitempty"`
	// Strategy is the executed strategy (the request's mode).
	Strategy string `json:"strategy,omitempty"`
	// Status / Code describe the outcome (Code for HTTP error outcomes).
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// DurationMS is the wall time; Phases the per-phase span breakdown.
	DurationMS float64            `json:"duration_ms"`
	Phases     map[string]float64 `json:"phases,omitempty"`
	// PruneSites is the attributed pruning; by the attribution contract the
	// values sum to CandidatesPruned.
	PruneSites       obs.Counters `json:"prune_sites,omitempty"`
	CandidatesPruned int64        `json:"candidates_pruned"`
	// EnforcedAt is the union of the plan's enforcement sites; Features the
	// strategy-independent feature vector.
	EnforcedAt []string           `json:"enforced_at,omitempty"`
	Features   *obs.QueryFeatures `json:"features,omitempty"`
}

// QueryHash derives the stable journal key for a canonical query text.
func QueryHash(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// ClassKey folds an ExplainReport's constraint classifications into the
// strategy-independent class key the rollups aggregate by: the sorted
// multiset of "<variable>=<class>" tags. Plan-derived entries (reduced
// conditions, bounds) are excluded — they depend on the strategy that ran.
func ClassKey(rep *obs.ExplainReport) string {
	if rep == nil {
		return "unconstrained"
	}
	var tags []string
	for _, ce := range rep.Constraints {
		if ce.Class == "reduced 1-var condition" {
			continue
		}
		tags = append(tags, ce.Variable+"="+ce.Class)
	}
	if len(tags) == 0 {
		return "unconstrained"
	}
	sort.Strings(tags)
	out := tags[0]
	for _, t := range tags[1:] {
		out += "; " + t
	}
	return out
}

// EnforcementSites flattens the report's per-constraint enforcement sites
// into a sorted, deduplicated union.
func EnforcementSites(rep *obs.ExplainReport) []string {
	if rep == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, ce := range rep.Constraints {
		for _, at := range ce.EnforcedAt {
			seen[at] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for at := range seen {
		out = append(out, at)
	}
	sort.Strings(out)
	return out
}
