package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/cfq"
	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/twovar"
	"repro/internal/txdb"
)

// cfqdLimits are cfqd's default evaluation limits (-default-timeout 30s,
// -default-maxpairs 20), so in-process queries carry the same budget and
// pair cap as served ones.
var cfqdLimits = serve.Limits{DefaultTimeout: 30 * time.Second, DefaultPairs: maxPairs}

// samples collects per-layer observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// allocMeter reports bytes allocated by the calling code since start.
type allocMeter struct{ before uint64 }

func startAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc}
}

func (a allocMeter) bytes() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc - a.before)
}

// spanTimes sums span durations of a RunReport by kind. Level spans
// ("S:level-3") and projections ("T:project") are mine's; "jmax-iter-N"
// spans are core's dovetail rounds and contain level spans.
type spanTimes struct {
	phase1, reduce, jmax, finalize, pairs, count, project, filter float64
	jmaxIters                                                     int
}

func readSpans(rep *cfq.RunReport) spanTimes {
	var st spanTimes
	if rep == nil {
		return st
	}
	var walk func(s *cfq.SpanReport)
	walk = func(s *cfq.SpanReport) {
		switch name := s.Name; {
		case name == "phase1":
			st.phase1 += s.DurationMS
		case name == "reduce":
			st.reduce += s.DurationMS
		case strings.HasPrefix(name, "jmax-iter-"):
			st.jmax += s.DurationMS
			st.jmaxIters++
		case name == "finalize":
			st.finalize += s.DurationMS
		case name == "pairs":
			st.pairs += s.DurationMS
		case strings.Contains(name, ":level-"):
			st.count += s.DurationMS
		case strings.HasSuffix(name, ":project"):
			st.project += s.DurationMS
		case strings.HasSuffix(name, ":filter"):
			st.filter += s.DurationMS
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Root)
	return st
}

// coreQuery builds the core.CFQ that cfq compiles the spec's text into,
// so core.Run is timed on exactly the served query.
func (w *workload) coreQuery(db *txdb.DB, spec querySpec) core.CFQ {
	prices := attr.Numeric(w.prices)
	q := core.CFQ{DB: db, MinSupportS: spec.sup, MinSupportT: spec.sup, MaxPairs: maxPairs}
	if spec.sMinPrice > 0 {
		q.ConstraintsS = append(q.ConstraintsS, constraint.Agg(attr.Min, prices, "Price", constraint.GE, spec.sMinPrice))
	}
	if spec.tMaxPrice > 0 {
		q.ConstraintsT = append(q.ConstraintsT, constraint.Agg(attr.Max, prices, "Price", constraint.LE, spec.tMaxPrice))
	}
	a := spec.agg2
	q.Constraints2 = append(q.Constraints2, twovar.Agg2(a.s, prices, "Price", a.op, a.t, prices, "Price"))
	if spec.typeEq {
		cat := categorical(w.types)
		q.Constraints2 = append(q.Constraints2, twovar.Dom2(constraint.EqualTo, cat, "Type", cat, "Type"))
	}
	return q
}

func categorical(labels []string) *attr.Categorical {
	ids := map[string]int32{}
	c := &attr.Categorical{Values: make([]int32, len(labels))}
	for i, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = int32(len(c.Labels))
			ids[l] = id
			c.Labels = append(c.Labels, l)
		}
		c.Values[i] = id
	}
	return c
}

// traceResult is the traced run's per-layer metrics plus its checks.
type traceResult struct {
	metrics    []metric
	premise    string
	premiseOK  bool
	attempted  int
	mismatches int
}

// traceLayers replays the workload's seeded request stream in-process and
// times the public entry point of each layer: serve (request decoding,
// Registry.Mutate, result encoding), cfq (parsing, the session), plan,
// core, mine and store. Span and Stats figures come from the RunReport and
// Stats the engine returns. served is the traced run's own window against
// cfqd, which supplies the figures only the daemon has.
func traceLayers(ctx context.Context, w *workload, seed int64, budget time.Duration, dir string, served *servedRun, queueWaitMS float64, refs map[refKey]answer) (*traceResult, error) {
	s := samples{}
	tr := &traceResult{}

	reg := serve.NewRegistry(256<<20, false) // cfqd's -session-cache-bytes default
	if w.durable {
		st, _, err := store.Open(store.Options{Dir: filepath.Join(dir, "registry"), Policy: store.SyncAlways})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		reg.SetStore(st)
	}
	if _, err := reg.Create(w.datasetSpec(datasetName, 0)); err != nil {
		return nil, err
	}

	// 1. The served path, request by request, in the stream's order: what
	// cfqd does between reading a body and writing the response.
	replayEnd := time.Now().Add(budget / 2)
	streams := []func() int{w.stream(seed, 0), w.stream(seed, 1)}
	perAppend := 0
	if len(served.appendMS) > 0 {
		perAppend = max(1, len(served.latencyMS)/len(served.appendMS))
	}
	prepared := map[string]*cfq.Prepared{}
	seen := map[refKey]bool{}
	// The stream figures count a result-cache hit as zero evaluation and
	// encoding, as cfqd spends none on it; they feed serve.unattributed_ms.
	var streamEval, streamEncode []float64
	var evalTotal, pairsTotal, countTotal, projectTotal float64
	version := 0
	for n := 0; n < len(w.classes) || time.Now().Before(replayEnd); n++ {
		if perAppend > 0 && n > 0 && n%perAppend == 0 && version < len(w.batches) {
			t0 := time.Now()
			if _, err := reg.Mutate(datasetName, w.batches[version]); err != nil {
				return nil, err
			}
			s.add("serve.mutate_ms", ms(time.Since(t0)))
			version++
		}
		c := w.classes[streams[n%w.clients]()]
		body := w.queryBody(c)
		t0 := time.Now()
		req, err := serve.DecodeQueryRequest(body)
		if err != nil {
			return nil, err
		}
		s.add("serve.decode_us", float64(time.Since(t0))/1e3)
		ds, sess, _, err := reg.Lookup(datasetName)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		q, err := cfq.ParseQuery(ds, req.Query)
		if err != nil {
			return nil, err
		}
		q.ApplyDefaultSupports(cfq.NewQuery(ds).MinSupportFraction(0.01))
		q.MaxPairs(cfqdLimits.ResolvePairs(req))
		b, _ := cfqdLimits.Resolve(req)
		q.Budget(b)
		s.add("cfq.parse_us", float64(time.Since(t0))/1e3)

		key := refKey{req.Query, version}
		if !w.noCache {
			if seen[key] {
				// cfqd answers from its result cache: no evaluation, no encoding.
				streamEval = append(streamEval, 0)
				streamEncode = append(streamEncode, 0)
				continue
			}
		}
		tracer := cfq.NewTracer(cfq.TracerOptions{Name: "replay"})
		tctx := cfq.WithTracer(ctx, tracer)
		var res *cfq.Result
		t0 = time.Now()
		switch {
		case req.Strategy == "auto":
			p := prepared[req.Query]
			if p == nil {
				if p, err = q.PrepareContext(tctx, cfq.Auto); err != nil {
					return nil, err
				}
				prepared[req.Query] = p
			}
			res, err = p.RunContext(tctx)
		case req.NoSession:
			res, err = q.RunContext(tctx, cfq.Optimized)
		default:
			res, err = sess.RunContext(tctx, q)
		}
		if err != nil {
			return nil, err
		}
		eval := ms(time.Since(t0))
		s.add("cfq.eval_ms", eval)
		streamEval = append(streamEval, eval)
		sp := readSpans(res.Report)
		evalTotal += eval
		pairsTotal += sp.pairs
		countTotal += sp.count
		projectTotal += sp.project
		tr.attempted++
		if want, ok := refs[key]; !ok || !(answer{res.PairCount, res.Pairs}).equal(want) {
			tr.mismatches++
		}
		res.Report = nil
		a := startAlloc()
		t0 = time.Now()
		if _, err := json.Marshal(res); err != nil {
			return nil, err
		}
		encode := ms(time.Since(t0))
		s.add("serve.encode_ms", encode)
		streamEncode = append(streamEncode, encode)
		s.add("serve.encode_alloc_kb", a.bytes()/1024)
		seen[key] = true
	}
	_, sess, _, err := reg.Lookup(datasetName)
	if err != nil {
		return nil, err
	}
	cs := sess.CacheStats()
	s.add("cfq.lattice_hit_frac", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	s.add("cfq.pairs_share", ratio(pairsTotal, evalTotal))
	s.add("cfq.count_share", ratio(countTotal, evalTotal))

	// 2. Each layer's entry point on every distinct query of the workload,
	// against the registration-time dataset.
	spec0 := w.datasetSpec("layers", 0)
	ds0, err := buildDataset(spec0)
	if err != nil {
		return nil, err
	}
	sets0, err := store.SetsFromInts(spec0.Transactions, spec0.Items)
	if err != nil {
		return nil, err
	}
	db0 := txdb.New(sets0)
	layersEnd := time.Now().Add(budget / 2)
	for pass := 0; pass == 0 || time.Now().Before(layersEnd); pass++ {
		for _, c := range w.classes {
			if c.strategy != "" {
				continue // core.Run and the session take no strategy; one pass per query
			}
			if err := traceClass(ctx, w, ds0, db0, c.spec, s); err != nil {
				return nil, fmt.Errorf("%s: %w", c.spec.text(), err)
			}
		}
	}

	for r := 0; r < 3; r++ {
		var st mine.Stats
		t0 := time.Now()
		if _, err := mine.AllFrequent(ctx, db0, w.minSupport(), nil, nil, &st); err != nil {
			return nil, err
		}
		s.add("mine.all_frequent_ms", ms(time.Since(t0)))
	}

	batches := w.resampleBatches(rand.New(rand.NewSource(seed)), 8, 20)
	if err := traceStore(filepath.Join(dir, "store"), spec0, sets0, batches, s); err != nil {
		return nil, err
	}
	if perAppend == 0 {
		// No appends in the served stream: time Registry.Mutate on its own.
		for _, b := range batches {
			t0 := time.Now()
			if _, err := reg.Mutate(datasetName, b); err != nil {
				return nil, err
			}
			s.add("serve.mutate_ms", ms(time.Since(t0)))
		}
	}

	// 3. Figures only cfqd has, from the traced run's own served window.
	ok := float64(len(served.latencyMS))
	servedP50 := median(served.latencyMS)
	s["serve.queue_wait_ms"] = []float64{queueWaitMS}
	s["serve.cache_hit_frac"] = []float64{ratio(float64(served.cached), ok)}
	s["serve.collapsed_frac"] = []float64{ratio(float64(served.collapsed), ok)}
	attributed := median(s["serve.decode_us"])/1e3 + median(s["cfq.parse_us"])/1e3 + queueWaitMS +
		median(streamEval) + median(streamEncode)
	s["serve.unattributed_ms"] = []float64{servedP50 - attributed}

	tr.metrics = layerMetrics(s)
	pairsShare, countShare := ratio(pairsTotal, evalTotal), ratio(countTotal, evalTotal)
	shares := fmt.Sprintf("pair formation is %.3f and mining levels %.3f of engine time (levels plus projections %.3f)",
		pairsShare, countShare, ratio(countTotal+projectTotal, evalTotal))
	switch w.name {
	case "fig8a-mine":
		tr.premiseOK = pairsShare < 0.2 && countShare > 0.5
		tr.premise = "want pairs < 0.2 and levels > 0.5: " + shares
	case "dense-pairs":
		tr.premiseOK = pairsShare > 0.5 && countShare < 0.2
		tr.premise = "want pairs > 0.5 and levels < 0.2: " + shares
	default:
		tr.premiseOK = true
		tr.premise = "none stated: " + shares
	}
	return tr, nil
}

// traceClass times one query through plan, core and the session.
func traceClass(ctx context.Context, w *workload, ds *cfq.Dataset, db *txdb.DB, spec querySpec, s samples) error {
	q, err := cfq.ParseQuery(ds, spec.text())
	if err != nil {
		return err
	}
	q.MaxPairs(maxPairs)

	t0 := time.Now()
	p, err := q.Prepare(cfq.Auto)
	if err != nil {
		return err
	}
	s.add("plan.prepare_ms", ms(time.Since(t0)))
	chosen, err := coreStrategy(p.Strategy())
	if err != nil {
		return err
	}
	optimized, err := coreStrategy(cfq.Optimized)
	if err != nil {
		return err
	}

	icfq := w.coreQuery(db, spec)
	a := startAlloc()
	t0 = time.Now()
	if _, err := core.Run(ctx, icfq, optimized); err != nil {
		return err
	}
	untraced := ms(time.Since(t0))
	s.add("core.alloc_mb", a.bytes()/(1<<20))
	s.add("core.run_ms", untraced)

	tracer := cfq.NewTracer(cfq.TracerOptions{Name: "core"})
	t0 = time.Now()
	res, err := core.Run(cfq.WithTracer(ctx, tracer), icfq, optimized)
	if err != nil {
		return err
	}
	s.add("obs.trace_overhead_frac", ms(time.Since(t0))/untraced-1)
	sp := readSpans(tracer.Report())
	s.add("core.phase1_ms", sp.phase1)
	s.add("core.reduce_ms", sp.reduce)
	s.add("core.jmax_ms", sp.jmax)
	s.add("core.jmax_iters", float64(sp.jmaxIters))
	s.add("core.finalize_ms", sp.finalize)
	s.add("core.pairs_ms", sp.pairs)
	s.add("mine.count_ms", sp.count)
	s.add("mine.project_ms", sp.project)
	st := res.Stats
	s.add("core.pair_checks", float64(st.PairChecks))
	s.add("core.pair_yield", ratio(float64(res.PairCount), float64(st.PairChecks)))
	s.add("mine.candidates_counted", float64(st.CandidatesCounted))
	s.add("mine.candidates_pruned", float64(st.CandidatesPruned))
	s.add("mine.db_scans", float64(st.DBScans))
	s.add("mine.lattice_kb", float64(st.LatticeBytes)/1024)
	s.add("mine.frequent_per_counted", ratio(float64(st.FrequentSets), float64(st.CandidatesCounted)))

	t0 = time.Now()
	if _, err := core.Run(ctx, icfq, chosen); err != nil {
		return err
	}
	s.add("plan.regret", ms(time.Since(t0))/untraced)

	sess := cfq.NewSession(ds)
	t0 = time.Now()
	if _, err := sess.RunContext(ctx, q); err != nil {
		return err
	}
	s.add("cfq.session_cold_ms", ms(time.Since(t0)))
	a = startAlloc()
	t0 = time.Now()
	if _, err := sess.RunContext(ctx, q); err != nil {
		return err
	}
	s.add("cfq.session_warm_ms", ms(time.Since(t0)))
	s.add("cfq.alloc_mb", a.bytes()/(1<<20))
	tracer = cfq.NewTracer(cfq.TracerOptions{Name: "session"})
	sres, err := sess.RunContext(cfq.WithTracer(ctx, tracer), q)
	if err != nil {
		return err
	}
	s.add("cfq.filter_ms", readSpans(sres.Report).filter)
	return nil
}

// coreStrategy maps a public strategy to the engine's through the
// planner's wire-name table, as cfq does.
func coreStrategy(s cfq.Strategy) (core.Strategy, error) {
	return core.ParseStrategy(plan.CoreName(s.String()))
}

// traceStore times Store.Append on a scratch store with cfqd's default
// fsync policy (always) and measures WAL bytes per appended transaction.
func traceStore(dir string, spec *serve.DatasetSpec, sets []itemset.Set, batches [][][]int, s samples) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, _, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	const name = "scratch"
	if err := st.Create(name, store.Meta{Items: spec.Items, Numeric: spec.Numeric, Categorical: spec.Categorical}, sets); err != nil {
		return err
	}
	wal := filepath.Join(dir, name+".wal")
	var bytes, txs float64
	for _, b := range batches {
		sets, err := store.SetsFromInts(b, spec.Items)
		if err != nil {
			return err
		}
		before, err := os.Stat(wal)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := st.Append(name, sets); err != nil {
			return err
		}
		s.add("store.append_ms", ms(time.Since(t0)))
		after, err := os.Stat(wal)
		if err != nil {
			return err
		}
		if d := after.Size() - before.Size(); d > 0 {
			bytes += float64(d)
			txs += float64(len(b))
		}
	}
	s["store.bytes_per_tx"] = []float64{ratio(bytes, txs)}
	return nil
}

// layerNames are the per-layer metrics of the traced run, in report order,
// with their units.
var layerNames = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"cfq.parse_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.collapsed_frac", "frac"},
	{"serve.encode_ms", "ms"},
	{"serve.encode_alloc_kb", "KiB"},
	{"serve.mutate_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.bytes_per_tx", "B"},
	{"cfq.eval_ms", "ms"},
	{"cfq.pairs_share", "frac"},
	{"cfq.count_share", "frac"},
	{"cfq.session_warm_ms", "ms"},
	{"cfq.session_cold_ms", "ms"},
	{"cfq.filter_ms", "ms"},
	{"cfq.alloc_mb", "MiB"},
	{"cfq.lattice_hit_frac", "frac"},
	{"plan.prepare_ms", "ms"},
	{"plan.regret", "ratio"},
	{"core.run_ms", "ms"},
	{"core.phase1_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.jmax_ms", "ms"},
	{"core.jmax_iters", "count"},
	{"core.finalize_ms", "ms"},
	{"core.pairs_ms", "ms"},
	{"core.pair_checks", "count"},
	{"core.pair_yield", "frac"},
	{"core.alloc_mb", "MiB"},
	{"mine.all_frequent_ms", "ms"},
	{"mine.count_ms", "ms"},
	{"mine.project_ms", "ms"},
	{"mine.candidates_counted", "count"},
	{"mine.candidates_pruned", "count"},
	{"mine.db_scans", "count"},
	{"mine.lattice_kb", "KiB"},
	{"mine.frequent_per_counted", "frac"},
	{"obs.trace_overhead_frac", "frac"},
}

// layerMetrics reduces each metric's samples to their median.
func layerMetrics(s samples) []metric {
	out := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		v := median(s[l.name])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name: l.name, unit: l.unit, value: v, n: len(s[l.name])})
	}
	return out
}
