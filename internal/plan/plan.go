// Package plan is the strategy name table: the public (wire) spelling of
// each evaluation strategy, as the cfq API, the CLI and cfqd accept it, and
// the engine's spelling core.ParseStrategy accepts. It is kept as data (not
// core.Strategy values) so that it has no dependency on the engine and
// strategy-selection literals stay out of the packages that only name
// strategies.
//
// There is no cost model here. The paper's optimizer (strategy optimized:
// push 1-var constraints, reduce quasi-succinct 2-var constraints after the
// first level, tighten the rest with Jmax) is the plan every query runs
// unless the caller names another strategy; "auto" is an alias of it,
// resolved by cfq.ParseStrategy.
package plan

// Strategy names, in the public (wire) spelling.
const (
	Optimized  = "optimized"
	NoJmax     = "nojmax"
	CAP        = "cap"
	Apriori    = "apriori"
	FM         = "fm"
	Sequential = "sequential"
)

// Names lists every strategy in the order the cfq Strategy enum declares
// them.
func Names() []string {
	return []string{Optimized, NoJmax, CAP, Apriori, FM, Sequential}
}

// coreNames maps wire spellings to core.Strategy.String() spellings.
var coreNames = map[string]string{
	Optimized:  "optimized",
	NoJmax:     "optimized-nojmax",
	CAP:        "cap-1var",
	Apriori:    "apriori+",
	FM:         "fm",
	Sequential: "sequential",
}

// CoreName translates a wire strategy name to the core engine's spelling
// (e.g. "nojmax" → "optimized-nojmax"). Unknown names pass through.
func CoreName(name string) string {
	if cn, ok := coreNames[name]; ok {
		return cn
	}
	return name
}

// WireName translates a core engine spelling back to the wire name
// (e.g. "apriori+" → "apriori"). Unknown names pass through.
func WireName(core string) string {
	for wire, cn := range coreNames {
		if cn == core {
			return wire
		}
	}
	return core
}
