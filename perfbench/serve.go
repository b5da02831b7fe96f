package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m3v/internal/core"
	"m3v/internal/serve"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// The m3vd_dup workload: an in-process m3vd server (serve.New) on a
// loopback listener, driven by two closed-loop clients over a seeded
// request stream in which half the requests repeat an earlier one. Each
// batch starts a fresh server, so every batch has the same hits and misses.
const (
	fig6Requests = 98 // distinct fig6 requests per batch: 100 distinct with the two fig9
	clients      = 2
)

// fig6Rates are the fault rates a fig6 request draws from.
var fig6Rates = []float64{0.005, 0.01, 0.02}

// request is the body of POST /run. It carries only the fields that every
// m3vd version accepts: never the scheduler or the sampling interval.
type request struct {
	Experiment string  `json:"experiment"`
	Tiles      int     `json:"tiles,omitempty"`
	FaultSeed  uint64  `json:"fault_seed,omitempty"`
	FaultRate  float64 `json:"fault_rate,omitempty"`
}

// stream is the seeded input: the distinct requests (as JSON bodies) and
// the order they are sent in, as indices into distinct. distinct[0] is the
// fault-free fig9 request at one worker tile.
type stream struct {
	distinct [][]byte
	seq      []int
}

func newStream(seed uint64) (*stream, error) {
	rng := newRand(seed)
	reqs := []request{{Experiment: "fig9", Tiles: 1}, {Experiment: "fig9", Tiles: 2}}
	for i := 0; i < fig6Requests; i++ {
		reqs = append(reqs, request{
			Experiment: "fig6",
			FaultSeed:  mix(seed, uint64(i)) | 1,
			FaultRate:  fig6Rates[rng.IntN(len(fig6Rates))],
		})
	}
	st := &stream{}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		st.distinct = append(st.distinct, b)
	}
	// The two fig9 requests, the longest jobs, open every stream, so the
	// batch's critical path does not depend on where the seed puts them.
	// Before each later request, one already sent is repeated with
	// probability 1/2, until there are as many repeats as distinct
	// requests.
	st.seq = []int{0, 1}
	intro, repeats := 2, len(reqs)
	for intro < len(reqs) || repeats > 0 {
		if intro < len(reqs) && (repeats == 0 || rng.IntN(2) == 0) {
			st.seq = append(st.seq, intro)
			intro++
		} else {
			st.seq = append(st.seq, rng.IntN(intro))
			repeats--
		}
	}
	return st, nil
}

// answer is one HTTP exchange.
type answer struct {
	idx     int // index into distinct
	status  int
	cache   string // X-Cache: hit, miss or coalesced
	body    []byte
	latency time.Duration
}

// batch is one fresh server serving the whole stream.
type batch struct {
	setup, wall time.Duration
	answers     []answer
	serveMet    map[string]int64 // the server's /metrics after the batch
	counts      counts           // simulator counts over all jobs
	events      uint64
}

// runBatch starts a server, waits until /healthz answers, sends the stream
// from the clients, scrapes /metrics and drains the server. With collect
// set it also sums the simulator counts of every job: the simulations'
// recorders register themselves (with their event streams on in traced
// runs) until the batch ends. Registered recorders keep their systems
// alive, so untraced batches do not collect.
func runBatch(st *stream, collect bool, spans *spanLog) (*batch, error) {
	b := &batch{answers: make([]answer, len(st.seq))}
	if collect {
		trace.SetAutoRegister(true, spans != nil)
		defer func() {
			trace.SetAutoRegister(false, false)
			trace.ClearRegistered()
		}()
	}
	bspan := spans.begin("batch", 0, "")
	defer spans.end(bspan)

	t0 := time.Now()
	sp := spans.begin("serve.New", bspan, "")
	srv := serve.New(serve.Config{CacheEntries: 4 * len(st.distinct), Now: time.Now})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l, stop) }()
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	hc := &http.Client{Transport: tr}
	base := "http://" + l.Addr().String()
	defer func() {
		close(stop)
		if err := <-served; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server drain:", err)
		}
		tr.CloseIdleConnections()
	}()
	if err := waitHealthy(hc, base); err != nil {
		return nil, err
	}
	b.setup = time.Since(t0)
	spans.end(sp)

	ev0 := sim.TotalEventsExecuted()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.seq) {
					return
				}
				a, err := post(hc, base, st, st.seq[i], spans, bspan)
				if err != nil {
					errs[c] = err
					return
				}
				b.answers[i] = a
			}
		}(c)
	}
	wg.Wait()
	b.wall = time.Since(start)
	b.events = sim.TotalEventsExecuted() - ev0
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if b.serveMet, err = scrape(hc, base+"/metrics"); err != nil {
		return nil, err
	}
	for _, rec := range trace.Registered() {
		b.counts.add(readCounts(rec))
	}
	return b, nil
}

func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one request and reads the whole answer.
func post(hc *http.Client, base string, st *stream, idx int, spans *spanLog, parent int) (answer, error) {
	sp := spans.begin("http.run", parent, "")
	t0 := time.Now()
	resp, err := hc.Post(base+"/run", "application/json", bytes.NewReader(st.distinct[idx]))
	if err != nil {
		spans.end(sp)
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{idx: idx, status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
		body: body, latency: time.Since(t0)}
	spans.end(sp)
	spans.tag(sp, fmt.Sprintf("req=%d cache=%s", idx, a.cache))
	return a, err
}

// scrape reads a "name value" metrics page.
func scrape(hc *http.Client, url string) (map[string]int64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// checker verifies answers across batches: every answer must be 200 with
// the same body as the first answer to that request, and each batch must
// simulate each distinct request exactly once.
type checker struct {
	st        *stream
	first     [][]byte
	attempted int
	failed    int
	digest    uint64 // of the first batch
}

func (ck *checker) check(b *batch) {
	if ck.first == nil {
		ck.first = make([][]byte, len(ck.st.distinct))
	}
	for _, a := range b.answers {
		ck.attempted++
		switch {
		case a.status != http.StatusOK:
			fmt.Fprintf(os.Stderr, "perfbench: request %d: status %d: %s\n", a.idx, a.status, bytes.TrimSpace(a.body))
			ck.failed++
		case ck.first[a.idx] == nil:
			ck.first[a.idx] = a.body
		case !bytes.Equal(a.body, ck.first[a.idx]):
			fmt.Fprintf(os.Stderr, "perfbench: request %d: body differs from its first answer\n", a.idx)
			ck.failed++
		}
	}
	// Misses that did not coalesce each started one job.
	jobs := b.serveMet["serve.cache_misses"] - b.serveMet["serve.coalesced_waits"]
	if int(jobs) != len(ck.st.distinct) || b.serveMet["serve.jobs_done"] != jobs {
		fmt.Fprintf(os.Stderr, "perfbench: %d jobs started, %d done, for %d distinct requests\n",
			jobs, b.serveMet["serve.jobs_done"], len(ck.st.distinct))
		ck.attempted++
		ck.failed++
	}
	h := fnv.New64a()
	for _, body := range ck.first {
		h.Write(body)
	}
	fmt.Fprintf(h, "|%d", b.events)
	if d := h.Sum64(); ck.digest == 0 {
		ck.digest = d
	} else if d != ck.digest {
		fmt.Fprintf(os.Stderr, "perfbench: batch digest %016x differs from %016x\n", d, ck.digest)
		ck.attempted++
		ck.failed++
	}
}

// paperErr is the mean relative error against the paper of the rows of
// the fault-free one-tile fig9 answer.
func (ck *checker) paperErr() (float64, error) {
	var resp serve.Response
	if err := json.Unmarshal(ck.first[0], &resp); err != nil {
		return 0, fmt.Errorf("fig9 answer: %w", err)
	}
	var sum float64
	n := 0
	for _, row := range resp.Result.Rows {
		if row.Paper > 0 {
			sum += math.Abs(row.Value-row.Paper) / row.Paper * 100
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("fig9 answer has no paper values")
	}
	return sum / float64(n), nil
}

// runServe runs the m3vd_dup workload.
func runServe(o opts) (*report, error) {
	st, err := newStream(o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d requests per batch, %d distinct, %d clients\n",
		o.workload, o.seed, len(st.seq), len(st.distinct), clients)
	budget := time.Duration(o.seconds * float64(time.Second))
	ck := &checker{st: st}

	var batches []*batch
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev0 := sim.TotalEventsExecuted()
	if _, err := timesUntil(budget, func() error {
		b, err := runBatch(st, o.traced && len(batches) == 0, nil)
		if err != nil {
			return err
		}
		ck.check(b)
		batches = append(batches, b)
		return nil
	}); err != nil {
		return nil, err
	}
	ev1 := sim.TotalEventsExecuted()
	runtime.ReadMemStats(&after)
	var walls, setups []float64
	for _, b := range batches {
		walls = append(walls, b.wall.Seconds())
		setups = append(setups, b.setup.Seconds())
	}
	wallS := median(walls)
	fmt.Printf("sim_digest %016x (%d batches)\n", ck.digest, len(batches))
	rep := &report{Metrics: map[string]metric{}}

	if !o.traced {
		paperErr, err := ck.paperErr()
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.Metrics["wall_s"] = metric{wallS, "s"}
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["alloc_bytes_per_event"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / float64(ev1-ev0), "B"}
		rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		rep.Metrics["paper_err_pct"] = metric{paperErr, "%"}
		rep.Attempted, rep.Failed = ck.attempted, ck.failed
		rep.Correct = rep.Failed == 0
		return rep, nil
	}

	// Traced batches: event streams on, a span per request, CPU profile.
	spans := newSpanLog()
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	prof, err := startProfile(filepath.Join(o.outDir, name+".pprof"))
	if err != nil {
		return nil, err
	}
	var traced []*batch
	_, err = timesUntil(budget/2, func() error {
		b, err := runBatch(st, true, spans)
		if err != nil {
			return err
		}
		ck.check(b)
		traced = append(traced, b)
		return nil
	})
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(o.outDir, name+".spans.json")); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, err
	}
	var tracedWalls []float64
	for _, b := range traced {
		tracedWalls = append(tracedWalls, b.wall.Seconds())
	}

	// Latencies pooled over the untraced batches.
	var hits, misses []float64
	requests := 0
	var totalWall, missSum float64
	for _, b := range batches {
		totalWall += b.wall.Seconds()
		for _, a := range b.answers {
			requests++
			ms := float64(a.latency.Nanoseconds()) / 1e6
			if a.cache == "hit" {
				hits = append(hits, ms)
			} else {
				misses = append(misses, ms)
				missSum += ms
			}
		}
	}
	b0 := batches[0]
	sm := b0.serveMet
	jobMs := 0.0
	if n := sm["serve.job_wall_us.count"]; n > 0 {
		jobMs = float64(sm["serve.job_wall_us.sum"]) / float64(n) / 1e3
	}
	// The job histogram exposes only its sum and count, so the wait a
	// miss adds on top of its job is taken between means.
	missMean := missSum / float64(len(misses))
	handoffNs, handoffAllocs := handoffProbe()
	c := b0.counts
	m := layerMetrics{
		"sim.events":           float64(b0.events),
		"sim.ns_per_event":     wallS * 1e9 / float64(b0.events),
		"sim.handoff_ns":       handoffNs,
		"sim.handoff_allocs":   handoffAllocs,
		"tilemux.ctx_switches": float64(c.ctxSwitches),
		"tilemux.irqs":         float64(c.irqs),
		"dtu.sends":            float64(c.dtuSends),
		"dtu.fetches":          float64(c.dtuFetches),
		"dtu.core_reqs":        float64(c.coreReqs),
		"noc.packets":          float64(c.nocPackets),
		"noc.bytes":            float64(c.nocBytes),
		"kernel.syscalls":      float64(c.syscalls),
		"m3x.forwards":         float64(traced[0].counts.forwards),
		"m3x.remote_switches":  float64(traced[0].counts.remoteSw),
		"trace.overhead_frac":  median(tracedWalls)/wallS - 1,
		"core.boot_ms":         bootProbe(core.FPGAConfig()),
		"serve.hits":           float64(sm["serve.cache_hits"]),
		"serve.misses":         float64(sm["serve.cache_misses"] - sm["serve.coalesced_waits"]),
		"serve.coalesced":      float64(sm["serve.coalesced_waits"]),
		"serve.rejects":        float64(sm["serve.queue_rejects"]),
		"serve.hit_ratio":      float64(sm["serve.cache_hits"]) / float64(sm["serve.requests"]),
		"serve.req_per_s":      float64(requests) / totalWall,
		"serve.hit_p50_ms":     median(hits),
		"serve.hit_p99_ms":     quantile(hits, 0.99),
		"serve.miss_p50_ms":    median(misses),
		"serve.miss_p90_ms":    quantile(misses, 0.90),
		"serve.job_ms":         jobMs,
		"serve.wait_ms":        missMean - jobMs,
		"fault.retries":        float64(c.faultRetry),
	}
	m.addShares(shares)
	m.fill(rep)
	fmt.Printf("latency samples: %d hits, %d misses over %d batches\n", len(hits), len(misses), len(batches))
	rep.Attempted, rep.Failed = ck.attempted, ck.failed
	rep.Correct = rep.Failed == 0
	return rep, nil
}
