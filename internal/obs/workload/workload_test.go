package workload

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func qrec(i int, class, strat string, ms float64) *Record {
	return &Record{
		Kind:             KindQuery,
		Time:             time.Unix(int64(i), 0).UTC(),
		Dataset:          "d",
		QueryHash:        QueryHash(fmt.Sprintf("q-%d", i)),
		Class:            class,
		Strategy:         strat,
		Status:           200,
		DurationMS:       ms,
		PruneSites:       obs.Counters{"S:domain-filter:c": 3, "jmax:b1": 4},
		CandidatesPruned: 7,
	}
}

// srec is a re-run record of the kind older builds journaled.
func srec(class, strat string, ms float64) *Record {
	return &Record{Kind: "shadow", Dataset: "d", Class: class, Strategy: strat, DurationMS: ms}
}

func TestJournalMemRingAndRollups(t *testing.T) {
	j, err := OpenJournal(Options{MemRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		j.Append(qrec(i, "cls-a", "optimized", float64(i+1)))
	}
	j.Append(srec("cls-a", "nojmax", 0.5)) // only query records fold into rollups
	if got := len(j.Recent(0)); got != 3 {
		t.Fatalf("mem ring = %d records, want 3", got)
	}
	rolls := j.Rollups()
	if len(rolls) != 1 || rolls[0].Class != "cls-a" {
		t.Fatalf("rollups = %+v", rolls)
	}
	r := rolls[0]
	if r.Count != 5 || r.MeanMS != 3 || r.MaxMS != 5 || r.MeanPruned != 7 {
		t.Errorf("rollup = %+v", r)
	}
	if r.Strategies["optimized"] != 5 {
		t.Errorf("strategies = %v", r.Strategies)
	}
	st := j.State()
	if st.Appended != 6 || st.MemRecords != 3 || st.Classes != 1 {
		t.Errorf("state = %+v", st)
	}
}

func TestJournalClassOverflow(t *testing.T) {
	j, _ := OpenJournal(Options{MaxClasses: 4})
	defer j.Close()
	for i := 0; i < 10; i++ {
		j.Append(qrec(i, fmt.Sprintf("cls-%02d", i), "optimized", 1))
	}
	rolls := j.Rollups()
	if len(rolls) > 5 {
		t.Fatalf("rollups grew to %d classes, bound is 4+overflow", len(rolls))
	}
	var other int64
	for _, r := range rolls {
		if strings.HasPrefix(r.Class, "_") {
			other = r.Count
		}
	}
	if other != 6 {
		t.Errorf("overflow bucket holds %d, want 6", other)
	}
}

func TestJournalDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(Options{Dir: dir, SegmentBytes: 1 << 20, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j.Append(qrec(i, "cls-a", "optimized", 2))
	}
	j.Append(srec("cls-a", "nojmax", 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("ReadDir = %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Schema != RecordSchema {
			t.Errorf("schema = %d", rec.Schema)
		}
		if rec.Kind == KindQuery {
			var sum int64
			for _, n := range rec.PruneSites {
				sum += n
			}
			if sum != rec.CandidatesPruned {
				t.Errorf("prune sites sum %d != pruned %d", sum, rec.CandidatesPruned)
			}
		}
	}
	// Replay rebuilds the same rollup view.
	if rolls := Replay(recs).Rollups(); len(rolls) != 1 || rolls[0].Count != 4 {
		t.Errorf("replayed rollups = %+v", rolls)
	}
	// Reopen continues the segment rather than clobbering it.
	j2, err := OpenJournal(Options{Dir: dir, SegmentBytes: 1 << 20, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(qrec(9, "cls-a", "optimized", 2))
	j2.Close()
	if recs, err = ReadDir(dir); err != nil || len(recs) != 6 {
		t.Fatalf("after reopen: %d records, err %v; want 6", len(recs), err)
	}
	names, _ := os.ReadDir(dir)
	for _, e := range names {
		if !strings.HasPrefix(e.Name(), "journal-") {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

// TestFromRecords: Replay rebuilds, from journal records alone, the rollup
// view the live journal built while they were appended — every class, its
// counts and strategy mix — and skips the re-run records older journals
// hold.
func TestFromRecords(t *testing.T) {
	live, err := OpenJournal(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var recs []*Record
	for i := 0; i < 9; i++ {
		class, strat := "cls-a", "optimized"
		if i%3 == 0 {
			class, strat = "cls-b", "session"
		}
		rec := qrec(i, class, strat, float64(i+1))
		live.Append(rec)
		recs = append(recs, rec)
	}
	recs = append(recs, srec("cls-a", "nojmax", 0.5), srec("cls-c", "cap", 9))

	replayed := Replay(recs)
	got, want := replayed.Rollups(), live.Rollups()
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed rollups %+v, live %+v", got, want)
	}
	if st := replayed.State(); st.Classes != 2 {
		t.Errorf("replayed state = %+v", st)
	}
}

func TestClassKeyAndSites(t *testing.T) {
	rep := &obs.ExplainReport{Constraints: []*obs.ConstraintExplain{
		{Variable: "T", Class: "succinct, anti-monotone", EnforcedAt: []string{"candidate generation (domain filter)"}},
		{Variable: "S", Class: "succinct", EnforcedAt: []string{"candidate generation (domain filter)", "final filter"}},
		{Variable: "S", Class: "reduced 1-var condition", EnforcedAt: []string{"pushed into phase-2 counting"}},
	}}
	key := ClassKey(rep)
	if key != "S=succinct; T=succinct, anti-monotone" {
		t.Errorf("class key = %q", key)
	}
	sites := EnforcementSites(rep)
	if len(sites) != 3 || sites[0] != "candidate generation (domain filter)" {
		t.Errorf("sites = %v", sites)
	}
	if ClassKey(nil) != "unconstrained" || ClassKey(&obs.ExplainReport{}) != "unconstrained" {
		t.Error("empty report class key")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(qrec(1, "c", "s", 1))
	if j.Recent(1) != nil || j.Rollups() != nil || j.Close() != nil {
		t.Error("nil Journal not inert")
	}
}
