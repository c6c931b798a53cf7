// Command perfbench is the repository's benchmark: it starts the real cfqd
// built from this tree, drives /v1/query (and dataset appends) over
// loopback, checks every answer against an in-process reference, and prints
// the end-to-end metrics; with --trace 1 it instead replays the same seeded
// requests in-process and prints per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload dense-pairs --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run boots cfqd, registers the dataset and
// warms it up; setup_s is the median, and the last boot is measured.
const setupReps = 5

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	cfqd := fs.String("cfqd", "", "cfqd binary built from this tree")
	workdir := fs.String("workdir", "", "scratch directory (data dirs, logs)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *cfqd == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -cfqd, -workdir, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	res, err := bench(ctx, *name, *seed, *seconds, *trace == 1, *cfqd, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func bench(ctx context.Context, name string, seed int64, seconds int, traced bool, cfqd, workdir string) (*result, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(workdir, w.name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d mode=%s\n", w.name, seed, seconds, mode)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# machine: %s %s/%s nproc=%d cpu=%q\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpuModel())
	if w.durable {
		fmt.Println("# cfqd: -data-dir set, -fsync always (cfqd default)")
	}

	refs, err := references(ctx, w)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups, setupRSS []float64
	var d *daemon
	var gen0 uint64
	for r := 0; r < reps; r++ {
		var took time.Duration
		var rss float64
		d, gen0, took, rss, err = setup(ctx, w, cfqd, filepath.Join(dir, "cfqd"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		setupRSS = append(setupRSS, rss)
		if r < reps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()

	window := time.Duration(seconds) * time.Second
	if traced {
		window /= 2
	}
	qwSum0, qwCount0, err := d.queueWait(ctx)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	cpu0 := readCPU()
	served := measure(ctx, w, d, gen0, seed, window, refs)
	steal := cpu0.stealSince(readCPU())
	qwSum1, qwCount1, qwErr := d.queueWait(ctx)
	rss, rssErr := d.peakRSSMB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if qwErr != nil {
		return nil, qwErr
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if served.firstErr != nil {
		fmt.Printf("# first failure: %v\n", served.firstErr)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := &result{Metrics: map[string]jsonMetric{}, Attempted: served.attempted, Failed: served.failed}
	var metrics []metric
	mismatches, checked := served.mismatches, served.checked
	if traced {
		tr, err := traceLayers(ctx, w, seed, window, dir, served, ratio(qwSum1-qwSum0, qwCount1-qwCount0), refs)
		if err != nil {
			return nil, err
		}
		metrics = tr.metrics
		res.Attempted += tr.attempted
		res.Failed += tr.mismatches
		mismatches += tr.mismatches
		checked += tr.attempted
		verdict := "holds"
		if !tr.premiseOK {
			verdict = "FAILS"
		}
		fmt.Printf("# premise %s: %s\n", verdict, tr.premise)
	} else {
		metrics = endToEnd(served, setups, setupRSS)
	}
	for _, m := range metrics {
		fmt.Printf("%-26s %14.4f %-5s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, m := range validity(w, served, rss, steal) {
		fmt.Printf("%-26s %14.4f %-5s n=%d (reported, not gated)\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Printf("# answers checked: %d, mismatches: %d\n", checked, mismatches)
	res.Correct = mismatches == 0
	return res, nil
}

// endToEnd reduces a served window to the gated end-to-end metrics.
func endToEnd(r *servedRun, setups, setupRSS []float64) []metric {
	n := len(r.latencyMS)
	return []metric{
		{"query_p50_ms", "ms", median(r.latencyMS), n},
		{"query_p90_ms", "ms", quantile(r.latencyMS, 0.9), n - int(math.Ceil(0.9*float64(n)))},
		{"query_qps", "1/s", float64(n) / r.wall.Seconds(), n},
		{"resp_kb_p50", "KiB", median(r.respKB), n},
		{"setup_s", "s", median(setups), len(setups)},
		{"setup_rss_mb", "MiB", median(setupRSS), len(setupRSS)},
	}
}

// validity reports the figures that qualify a run but are not gated: the
// failure share, cfqd's high-water RSS over the whole run (it follows GC
// timing under concurrent load and spreads too widely run to run to gate),
// the share of CPU time the hypervisor stole during the window (a run with
// a large share measured the host, not cfqd), and append-mix's write path
// and writer lateness. (For query_p90_ms, n above is the number of samples
// beyond p90.)
func validity(w *workload, r *servedRun, peakRSSMB, steal float64) []metric {
	out := []metric{
		{"error_frac", "frac", ratio(float64(r.failed), float64(r.attempted)), r.attempted},
		{"peak_rss_mb", "MiB", peakRSSMB, 1},
		{"steal_frac", "frac", steal, 1},
	}
	if w.batches != nil {
		out = append(out,
			metric{"append_p50_ms", "ms", median(r.appendMS), len(r.appendMS)},
			metric{"requery_p50_ms", "ms", median(r.requeryMS), len(r.requeryMS)},
			metric{"writer_late_ms", "ms", quantile(r.lateMS, 1), len(r.lateMS)},
		)
	}
	return out
}

// cpuTimes is the machine-wide CPU time line of /proc/stat, in ticks.
type cpuTimes []float64

// readCPU returns the aggregate CPU times, or nil where /proc/stat is
// unavailable.
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var t cpuTimes
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

// stealSince is the share of all CPU time between c and later that the
// hypervisor stole (the eighth field).
func (c cpuTimes) stealSince(later cpuTimes) float64 {
	if len(c) < 8 || len(later) != len(c) {
		return 0
	}
	var total float64
	for i := range c {
		total += later[i] - c[i]
	}
	return ratio(later[7]-c[7], total)
}

// cpuModel names the processor, for the machine fingerprint.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
