package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// datasetName is the name every workload registers its dataset under.
const datasetName = "bench"

// daemon is one running cfqd.
type daemon struct {
	cmd    *exec.Cmd
	api    string // http://host:port of the API listener
	ops    string // http://host:port of the ops listener
	exited chan struct{}
	log    *os.File
}

// opsPort picks a free loopback port for the ops listener (cfqd reports
// only its API address). It draws below the kernel's ephemeral range, so
// cfqd's own -addr 127.0.0.1:0 cannot be handed the same port.
func opsPort() (string, error) {
	var err error
	for i := 0; i < 20; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(10000))
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return addr, ln.Close()
		}
	}
	return "", err
}

// startDaemon boots cfqd with its default flags plus -quiet, an ops
// address and, for durable workloads, -data-dir; it returns once /readyz
// answers 200. A start that loses its ops port to another process is
// retried.
func startDaemon(ctx context.Context, bin, dir string, durable bool) (*daemon, error) {
	for attempt := 1; ; attempt++ {
		d, err := tryStart(ctx, bin, dir, durable)
		if !errors.Is(err, errPortTaken) || attempt == 5 {
			return d, err
		}
	}
}

var errPortTaken = errors.New("ops port taken")

func tryStart(ctx context.Context, bin, dir string, durable bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opsAddr, err := opsPort()
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-ops-addr", opsAddr, "-quiet"}
	if durable {
		dataDir := filepath.Join(dir, "data")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	logPath := filepath.Join(dir, "cfqd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// cfqd drains if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cfqd: %w", err)
	}
	d := &daemon{cmd: cmd, ops: "http://" + opsAddr, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.api = "http://" + strings.TrimSpace(string(b))
			if code, _, err := httpGet(ctx, d.ops+"/readyz"); err == nil && code == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			if b, _ := os.ReadFile(logPath); bytes.Contains(b, []byte("address already in use")) {
				return nil, errPortTaken
			}
			return nil, fmt.Errorf("cfqd exited during start-up (see %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, errors.New("cfqd not ready within 30s")
		}
	}
}

// stop drains cfqd with SIGTERM (SIGKILL after 20 s) and waits for it.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("cfqd did not drain within 20s; killed")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("cfqd exited with code %d", code)
	}
	return nil
}

// peakRSSMB reads cfqd's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// queueWait reads the sum and count of cfqd's server_queue_wait_ms
// histogram for the query endpoint from the ops /metrics page.
func (d *daemon) queueWait(ctx context.Context) (sumMS, count float64, err error) {
	code, body, err := httpGet(ctx, d.ops+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("/metrics: status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case `server_queue_wait_ms_sum{endpoint="query"}`:
			sumMS, err = strconv.ParseFloat(val, 64)
		case `server_queue_wait_ms_count{endpoint="query"}`:
			count, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return sumMS, count, nil
}

// client is the benchmark's one HTTP client: at most two connections, the
// number of closed-loop clients plus the writer.
var client = &http.Client{
	Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	Timeout:   60 * time.Second,
}

func httpGet(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(req)
}

func httpPost(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(req)
}

func do(req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// queryBody is the /v1/query body of one request class.
func (w *workload) queryBody(c class) []byte {
	b, err := json.Marshal(serve.QueryRequest{
		Dataset:   datasetName,
		Query:     c.spec.text(),
		Strategy:  c.strategy,
		NoCache:   w.noCache,
		NoSession: w.noSession,
	})
	if err != nil {
		panic(err) // a QueryRequest always marshals
	}
	return b
}

// setup boots cfqd, registers the dataset and warms it up with the
// workload's warm-up requests. It returns the running daemon, the dataset
// generation at registration, the wall time it took and cfqd's high-water
// RSS at that point.
func setup(ctx context.Context, w *workload, bin, dir string) (d *daemon, gen uint64, took time.Duration, rssMB float64, err error) {
	start := time.Now()
	if d, err = startDaemon(ctx, bin, dir, w.durable); err != nil {
		return nil, 0, 0, 0, err
	}
	if gen, err = setupDataset(ctx, w, d); err == nil {
		took = time.Since(start)
		rssMB, err = d.peakRSSMB()
	}
	if err != nil {
		_ = d.stop()
		return nil, 0, 0, 0, err
	}
	return d, gen, took, rssMB, nil
}

func setupDataset(ctx context.Context, w *workload, d *daemon) (uint64, error) {
	body, err := json.Marshal(w.datasetSpec(datasetName, 0))
	if err != nil {
		return 0, err
	}
	code, resp, err := httpPost(ctx, d.api+"/v1/datasets", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return 0, fmt.Errorf("register dataset: status %d: %s", code, resp)
	}
	var created serve.DatasetsResponse
	if err := json.Unmarshal(resp, &created); err != nil || created.Dataset == nil {
		return 0, fmt.Errorf("register dataset: bad response: %v", err)
	}
	var warm [][]byte
	for _, t := range w.warm {
		b, err := json.Marshal(serve.QueryRequest{Dataset: datasetName, Query: t})
		if err != nil {
			return 0, err
		}
		warm = append(warm, b)
	}
	for _, c := range w.classes {
		if w.warmClasses {
			warm = append(warm, w.queryBody(c))
		}
	}
	for _, b := range warm {
		code, resp, err := httpPost(ctx, d.api+"/v1/query", b)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("warm-up query: status %d: %s", code, resp)
		}
	}
	return created.Dataset.Generation, nil
}

// envelope is the part of a /v1/query response the benchmark reads.
type envelope struct {
	Generation uint64          `json:"generation"`
	Cached     bool            `json:"cached"`
	Collapsed  bool            `json:"collapsed"`
	Result     json.RawMessage `json:"result"`
}

// servedRun is what one measured window against cfqd observed.
type servedRun struct {
	wall       time.Duration
	latencyMS  []float64 // completed 200 queries
	respKB     []float64
	requeryMS  []float64 // first query to see each new generation
	appendMS   []float64 // from when each append was due
	lateMS     []float64 // how late the writer sent each append
	attempted  int       // queries + appends
	checked    int       // 200 responses compared with their reference
	failed     int       // errors, refusals and mismatches
	mismatches int
	cached     int
	collapsed  int
	firstErr   error
}

func (r *servedRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// measure drives the workload against cfqd for the given duration: the
// closed-loop query clients and, for append-mix, the open-loop writer.
// Every 200 response is checked against its reference answer.
func measure(ctx context.Context, w *workload, d *daemon, gen0 uint64, seed int64, dur time.Duration, refs map[refKey]answer) *servedRun {
	bodies := make([][]byte, len(w.classes))
	for i, c := range w.classes {
		bodies[i] = w.queryBody(c)
	}
	run := &servedRun{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients; c++ {
		next := w.stream(seed, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := gen0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next()
				t0 := time.Now()
				code, resp, err := httpPost(ctx, d.api+"/v1/query", bodies[i])
				lat := ms(time.Since(t0))
				var env envelope
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("query: status %d: %.200s", code, resp)
				}
				mismatch := false
				if err == nil {
					env, mismatch, err = check(w.classes[i].spec.text(), resp, gen0, refs)
				}
				mu.Lock()
				run.attempted++
				if err != nil {
					run.fail(err)
				}
				if err == nil || mismatch {
					run.checked++
				}
				if mismatch {
					run.mismatches++
				}
				if err == nil {
					run.latencyMS = append(run.latencyMS, lat)
					run.respKB = append(run.respKB, float64(len(resp))/1024)
					if env.Cached {
						run.cached++
					}
					if env.Collapsed {
						run.collapsed++
					}
					if env.Generation > lastGen {
						run.requeryMS = append(run.requeryMS, lat)
						lastGen = env.Generation
					}
				}
				mu.Unlock()
			}
		}()
	}
	if w.batches != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := d.api + "/v1/datasets/" + datasetName + "/transactions"
			for k, b := range w.batches {
				due := start.Add(w.appendEvery/2 + time.Duration(k)*w.appendEvery)
				if !due.Before(deadline) {
					return
				}
				select {
				case <-time.After(time.Until(due)):
				case <-ctx.Done():
					return
				}
				body, err := json.Marshal(serve.MutateRequest{Transactions: b})
				if err != nil {
					panic(err) // a MutateRequest always marshals
				}
				sent := time.Now()
				code, resp, err := httpPost(ctx, url, body)
				done := time.Now()
				mu.Lock()
				run.attempted++
				switch {
				case err != nil:
					run.fail(err)
				case code != http.StatusOK:
					run.fail(fmt.Errorf("append: status %d: %.200s", code, resp))
				default:
					run.appendMS = append(run.appendMS, ms(done.Sub(due)))
					run.lateMS = append(run.lateMS, ms(sent.Sub(due)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	return run
}

// check decodes a 200 response to a query and compares its answer with the
// reference for its text at the generation it reports. mismatch is set
// when the answer decodes but differs (err then says how).
func check(text string, resp []byte, gen0 uint64, refs map[refKey]answer) (env envelope, mismatch bool, err error) {
	if err := json.Unmarshal(resp, &env); err != nil {
		return env, false, fmt.Errorf("query: decode envelope: %w", err)
	}
	var got answer
	if err := json.Unmarshal(env.Result, &got); err != nil {
		return env, false, fmt.Errorf("query: decode result: %w", err)
	}
	key := refKey{text, int(env.Generation - gen0)}
	if want, ok := refs[key]; !ok || !got.equal(want) {
		return env, true, fmt.Errorf("answer mismatch: %q at generation %d: got %d pairs, want %d%s",
			text, env.Generation, got.PairCount, want.PairCount, matchingVersion(refs, key, got))
	}
	return env, false, nil
}

// matchingVersion names the dataset versions whose reference the answer
// does match, to tell a wrong answer from one labelled with the wrong
// generation.
func matchingVersion(refs map[refKey]answer, key refKey, got answer) string {
	var vs []string
	for k, a := range refs {
		if k.text == key.text && k.version != key.version && got.equal(a) {
			vs = append(vs, strconv.Itoa(k.version))
		}
	}
	if len(vs) == 0 {
		return " (matches no dataset version)"
	}
	return fmt.Sprintf(" (matches version(s) %s, labelled %d)", strings.Join(vs, ","), key.version)
}
