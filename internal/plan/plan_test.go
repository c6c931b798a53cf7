package plan

import "testing"

// TestNameMaps: wire ↔ core spellings round-trip.
func TestNameMaps(t *testing.T) {
	for _, n := range Names() {
		if got := WireName(CoreName(n)); got != n {
			t.Errorf("round trip %s → %s → %s", n, CoreName(n), got)
		}
	}
	if CoreName(NoJmax) != "optimized-nojmax" || CoreName(Apriori) != "apriori+" || CoreName(CAP) != "cap-1var" {
		t.Error("core spellings drifted")
	}
	if CoreName("auto") != "auto" {
		t.Error("unknown names must pass through")
	}
}
