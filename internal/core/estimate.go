// Selectivity estimation for EXPLAIN: a deliberately crude item-frequency
// model. The optimizer has no histogram machinery; what it does have cheaply
// is the support of every item (one database scan). A 1-var constraint's
// estimated selectivity is the support-weighted fraction of domain items
// whose *singleton* satisfies it — i.e. the expected level-1 pass rate,
// treating the constraint as an item filter. For succinct constraints this
// is exact at level 1; for aggregate constraints it is only an indicator of
// how restrictive the constraint is on small sets. EXPLAIN ANALYZE exists
// precisely because this estimate is rough: the actual pruned counts sit
// next to it.
package core

import (
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// itemSupports computes the support of every item in one database scan
// (counted in the db's scan total, like any other pass).
func itemSupports(db *txdb.DB) supports {
	sup := make(supports, db.NumItems())
	db.Scan(func(_ int, t itemset.Set) {
		for _, it := range t {
			sup[it]++
		}
	})
	return sup
}

// supports holds item supports indexed by item id.
type supports []int64

// of returns the support of item it; 0 for items no transaction holds.
func (s supports) of(it itemset.Item) int64 {
	if int(it) < len(s) {
		return s[it]
	}
	return 0
}

// estimateSelectivity returns the estimated fraction of candidate mass the
// constraint keeps, in [0, 1], or -1 when the domain carries no support
// mass at all (no estimate possible).
func estimateSelectivity(c constraint.Constraint, domain itemset.Set, sup supports) float64 {
	var kept, total int64
	for _, it := range domain {
		w := sup.of(it)
		if w == 0 {
			continue
		}
		total += w
		if c.Satisfies(itemset.New(it)) {
			kept += w
		}
	}
	if total == 0 {
		return -1
	}
	return float64(kept) / float64(total)
}
