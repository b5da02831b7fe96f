package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"m3v/internal/bench"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// Config tunes a Server. The zero value of every field has a sensible
// default filled in by New.
type Config struct {
	// Workers is the simulation worker pool size (default
	// bench.Parallelism(): simulations are CPU-bound single-threaded
	// runs, so one per core saturates the machine).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// with Retry-After (default 2*Workers).
	QueueDepth int
	// CacheEntries caps the LRU result cache (default 128; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// JobTimeout is the per-job wall-clock deadline; expiry cancels the
	// job's engines (default 2m, negative disables).
	JobTimeout time.Duration
	// DrainTimeout bounds graceful drain; expiry cancels still-running
	// jobs (default 1m).
	DrainTimeout time.Duration
	// RetrySeconds is the Retry-After hint on 429 responses (default 2).
	RetrySeconds int
	// Now supplies wall-clock time for latency accounting. The serving
	// layer lives outside the walltime-linted simulation, but the lint
	// boundary is the package, so the clock is injected by cmd/m3vd; nil
	// disables wall-clock accounting (sim results are unaffected — they
	// never see wall time).
	Now func() time.Time
	// Lookup resolves experiment IDs (default bench.Lookup; tests
	// substitute fakes).
	Lookup func(string) (bench.Experiment, bool)
}

// call is one admitted simulation: the singleflight unit. All identical
// in-flight requests share one call; refs counts the waiters so the last
// disconnect can cancel the job.
type call struct {
	digest    string
	req       Request
	params    bench.Params
	exp       bench.Experiment
	canceler  *sim.Canceler
	done      chan struct{} // closed by the worker after status/body are set
	status    int
	body      []byte
	refs      int // guarded by Server.mu
	abandoned bool
}

// Server executes canonical simulation requests on a bounded worker pool,
// with an LRU result cache, request coalescing, backpressure, deadlines,
// and graceful drain. Construct with New; serve via Handler or Serve.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	cache    *lru
	calls    map[string]*call
	queue    chan *call
	draining bool

	wg        sync.WaitGroup // worker pool
	closeOnce sync.Once

	met *trace.Metrics
	// Counters and gauges below are guarded by mu: the trace registry is
	// deliberately not thread-safe (sim-side users are single-threaded).
	cRequests, cHits, cMisses, cEvictions  *trace.Counter
	cCoalesced, cRejects, cBadRequests     *trace.Counter
	cJobsDone, cJobsFailed, cJobsCancelled *trace.Counter
	cDisconnects                           *trace.Counter
	gQueueDepth, gWorkersBusy              *trace.Gauge
	gInflight, gCacheEntries, gDraining    *trace.Gauge
	hJobWall                               *trace.Histogram
}

// New builds a Server and starts its worker pool. Callers that do not use
// Serve must call Close to stop the pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = bench.Parallelism()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 128
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = time.Minute
	}
	if cfg.RetrySeconds <= 0 {
		cfg.RetrySeconds = 2
	}
	if cfg.Lookup == nil {
		cfg.Lookup = bench.Lookup
	}
	m := trace.NewMetrics()
	s := &Server{
		cfg:   cfg,
		cache: newLRU(cfg.CacheEntries),
		calls: make(map[string]*call),
		queue: make(chan *call, cfg.QueueDepth),
		met:   m,

		cRequests:      m.Counter("serve.requests"),
		cHits:          m.Counter("serve.cache_hits"),
		cMisses:        m.Counter("serve.cache_misses"),
		cEvictions:     m.Counter("serve.cache_evictions"),
		cCoalesced:     m.Counter("serve.coalesced_waits"),
		cRejects:       m.Counter("serve.queue_rejects"),
		cBadRequests:   m.Counter("serve.bad_requests"),
		cJobsDone:      m.Counter("serve.jobs_done"),
		cJobsFailed:    m.Counter("serve.jobs_failed"),
		cJobsCancelled: m.Counter("serve.jobs_cancelled"),
		cDisconnects:   m.Counter("serve.disconnects"),
		gQueueDepth:    m.Gauge("serve.queue_depth"),
		gWorkersBusy:   m.Gauge("serve.workers_busy"),
		gInflight:      m.Gauge("serve.inflight_calls"),
		gCacheEntries:  m.Gauge("serve.cache_entries"),
		gDraining:      m.Gauge("serve.draining"),
		hJobWall:       m.Histogram("serve.job_wall_us"),
	}
	// Point-in-time gauges resolve at scrape, under the same mutex.
	m.AddProbe(func() {
		s.gQueueDepth.Set(int64(len(s.queue)))
		s.gInflight.Set(int64(len(s.calls)))
		s.gCacheEntries.Set(int64(s.cache.len()))
		if s.draining {
			s.gDraining.Set(1)
		} else {
			s.gDraining.Set(0)
		}
	})

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/experiments", s.handleExperiments)

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler tree (POST /run, GET /healthz, GET
// /metrics, GET /experiments).
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the resolved worker pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Close stops the worker pool after every queued job has run. Safe to call
// once no more requests are being handled; Serve's drain path calls it.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.queue) })
	s.wg.Wait()
}

// Serve runs an HTTP server for s on l until stop yields, then drains:
// admission stops (503), in-flight handlers and queued jobs finish, and
// the pool shuts down. Jobs still running after DrainTimeout are
// cancelled. Returns nil on a clean drain.
func (s *Server) Serve(l net.Listener, stop <-chan struct{}) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failure before any stop request
	case <-stop:
	}

	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		// Drain deadline hit: force-cancel whatever is still running so
		// the pool can exit. Map order is irrelevant — every in-flight
		// call is cancelled.
		s.mu.Lock()
		for _, c := range s.calls {
			c.canceler.Cancel()
		}
		s.mu.Unlock()
	}
	s.Close()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// handleRun admits one simulation request: cache lookup, coalescing onto
// an identical in-flight call, or bounded enqueue with backpressure; then
// waits for the result or the client's disconnect.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.countBadRequest()
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	canon, params, err := Canonicalize(req, s.cfg.Lookup)
	if err != nil {
		s.countBadRequest()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	digest := canon.Digest()
	exp, _ := s.cfg.Lookup(canon.Experiment) // Canonicalize vetted it

	s.mu.Lock()
	s.cRequests.Inc()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if body, ok := s.cache.get(digest); ok {
		s.cHits.Inc()
		s.mu.Unlock()
		writeResult(w, http.StatusOK, body, "hit")
		return
	}
	s.cMisses.Inc()
	c, coalesced := s.calls[digest]
	if coalesced {
		s.cCoalesced.Inc()
		c.refs++
	} else {
		c = &call{
			digest:   digest,
			req:      canon,
			params:   params,
			exp:      exp,
			canceler: sim.NewCanceler(),
			done:     make(chan struct{}),
			refs:     1,
		}
		select {
		case s.queue <- c:
			s.calls[digest] = c
		default:
			s.cRejects.Inc()
			s.mu.Unlock()
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetrySeconds))
			http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
			return
		}
	}
	s.mu.Unlock()

	source := "miss"
	if coalesced {
		source = "coalesced"
	}
	select {
	case <-c.done:
		writeResult(w, c.status, c.body, source)
	case <-r.Context().Done():
		s.abandon(c)
	}
}

// abandon records a waiter's disconnect. The last waiter to leave cancels
// the underlying simulation, freeing its worker early.
func (s *Server) abandon(c *call) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cDisconnects.Inc()
	c.refs--
	if c.refs > 0 {
		return
	}
	select {
	case <-c.done:
		// Finished while the waiter was leaving; result is cached anyway.
	default:
		c.abandoned = true
		c.canceler.Cancel()
	}
}

// worker executes queued calls until the queue is closed.
func (s *Server) worker() {
	defer s.wg.Done()
	for c := range s.queue {
		s.runJob(c)
	}
}

// runJob executes one call with a wall-clock deadline, publishes the
// result, and feeds the cache.
func (s *Server) runJob(c *call) {
	s.mu.Lock()
	s.gWorkersBusy.Inc()
	s.mu.Unlock()

	var start time.Time
	if s.cfg.Now != nil {
		start = s.cfg.Now()
	}
	var deadline *time.Timer
	if s.cfg.JobTimeout > 0 {
		deadline = time.AfterFunc(s.cfg.JobTimeout, c.canceler.Cancel)
	}
	res, err := s.runExperiment(c)
	if deadline != nil {
		deadline.Stop()
	}

	status := http.StatusOK
	var body []byte
	if err == nil {
		body, err = encodeResult(c.req, c.digest, res)
	}
	if err != nil {
		if errors.Is(err, bench.ErrCancelled) {
			status = http.StatusGatewayTimeout
			err = errors.New("job cancelled (deadline exceeded or client disconnected)")
		} else {
			status = http.StatusInternalServerError
		}
		body = encodeError(err)
	}

	s.mu.Lock()
	if s.cfg.Now != nil {
		s.hJobWall.Observe(s.cfg.Now().Sub(start).Microseconds())
	}
	delete(s.calls, c.digest)
	switch status {
	case http.StatusOK:
		s.cJobsDone.Inc()
		if s.cache.put(c.digest, body) {
			s.cEvictions.Inc()
		}
	case http.StatusGatewayTimeout:
		s.cJobsCancelled.Inc()
	default:
		s.cJobsFailed.Inc()
	}
	s.gWorkersBusy.Dec()
	c.status = status
	c.body = body
	s.mu.Unlock()
	close(c.done)
}

// runExperiment invokes the experiment, converting a driver panic into an
// error so one bad run cannot take the pool down.
func (s *Server) runExperiment(c *call) (res *bench.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", c.req.Experiment, r)
		}
	}()
	if c.canceler.Cancelled() {
		return nil, bench.ErrCancelled
	}
	return c.exp.Run(c.params, c.canceler)
}

func (s *Server) countBadRequest() {
	s.mu.Lock()
	s.cRequests.Inc()
	s.cBadRequests.Inc()
	s.mu.Unlock()
}

// handleHealthz answers 200 while serving and 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics exports the serve registry in the internal/trace snapshot
// format: one "name value" line per instrument (histograms appear as
// .count/.sum), sorted by name.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	s.met.RunProbes()
	snap := s.met.Snapshot()
	s.mu.Unlock()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, snap[name])
	}
}

// handleExperiments lists the registry entries.
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range bench.Experiments() {
		out = append(out, entry{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// writeResult sends a finished job's bytes with the cache-source header.
func writeResult(w http.ResponseWriter, status int, body []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(encodeError(err))
}
