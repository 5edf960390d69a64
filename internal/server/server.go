// Package server implements shelleyd, the resident verification
// daemon: an HTTP/JSON serving layer over the shelley pipeline that
// keeps loaded modules (and their memoizing pipeline caches, PR 1)
// warm across requests, coalesces identical in-flight requests by
// source fingerprint, bounds concurrency with a fixed worker pool and
// queue (503 on saturation, 504 on deadline), and drains gracefully.
//
// Endpoints:
//
//	POST /v1/check        full per-class verification reports
//	POST /v1/infer        per-operation behavior regexes (§3.2)
//	POST /v1/trace        trace membership / flattened replay
//	POST /v1/check-batch  many items, NDJSON streamed as each finishes
//	POST /v1/jobs         async batch; GET /v1/jobs/{id} polls/streams
//	GET  /healthz         liveness (503 while draining)
//	GET  /metrics         Prometheus-style text exposition
//
// Request bodies carry MicroPython source, or a fingerprint of a
// source POSTed earlier for a cache-only re-check. Wire types live in
// the public client package so the daemon and its Go client share one
// schema.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/store"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Workers is the number of pool workers executing verification
	// jobs; 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds jobs admitted but not yet running; a full
	// queue answers 503. 0 means 4×Workers.
	QueueDepth int

	// RequestTimeout is the per-request execution budget, counted from
	// admission (queue time included); expiry answers 504. 0 means 30s.
	RequestTimeout time.Duration

	// CheckWorkers is the per-request fan-out passed to
	// Module.CheckAllContext. 0 means 1 (parallelism across requests,
	// not within them — the pool is the concurrency budget).
	CheckWorkers int

	// MaxSourceBytes bounds request bodies. 0 means 4 MiB.
	MaxSourceBytes int64

	// MaxModules bounds resident modules; beyond it, settled entries
	// are evicted arbitrarily. 0 means 256.
	MaxModules int

	// Logger receives one structured access record per request (method,
	// path, status, duration, coalesced flag, trace ID). nil disables
	// access logging — the -quiet daemon flag.
	Logger *slog.Logger

	// Tracing turns on the span tracer: every request runs under a root
	// span (trace ID from the X-Shelley-Trace header when the client
	// sends one) and finished spans land in an in-memory ring served by
	// GET /v1/trace-export.
	Tracing bool

	// TraceRingSize caps the span ring; 0 means 4096.
	TraceRingSize int

	// MaxBatchItems bounds the items of one synchronous
	// /v1/check-batch request; larger batches are refused with 413
	// pointing at the async job mode. 0 means 256.
	MaxBatchItems int

	// MaxJobItems bounds the items of one async job (POST /v1/jobs).
	// 0 means 4096.
	MaxJobItems int

	// MaxJobs bounds retained jobs, running and completed; completed
	// jobs are evicted oldest-first to admit new ones. 0 means 64.
	MaxJobs int

	// MaxClientItems bounds one client's in-flight batch items across
	// all its concurrent batch streams and jobs; beyond it the whole
	// batch is refused with 429 and a jittered Retry-After, so one
	// noisy client exhausts its own share instead of the pool. A sync
	// batch charges its full item count; an async job charges its peak
	// pool occupancy — min(items, BatchWindow), further capped to this
	// share — so a job up to MaxJobItems is always admissible on an
	// idle daemon even though MaxJobItems may exceed this bound.
	// Clients are keyed by the X-Shelley-Client token, falling back to
	// the remote host. 0 means 2×MaxBatchItems.
	MaxClientItems int

	// MaxBatchInflight bounds in-flight batch items across every
	// client (503 beyond — the daemon, not the client, is the
	// bottleneck). 0 means 4×MaxBatchItems.
	MaxBatchInflight int

	// BatchWindow bounds how many of one batch's items may occupy the
	// worker pool at once. Batch items submit with backpressure — a
	// full queue stalls the stream instead of shedding — so the window
	// is what keeps one batch from monopolizing the queue. 1 processes
	// items strictly in request order (deterministic record order).
	// 0 means Workers.
	BatchWindow int

	// MaxBatchBytes bounds /v1/check-batch and /v1/jobs request
	// bodies. 0 means 4×MaxSourceBytes.
	MaxBatchBytes int64

	// Store, when non-nil, is the durable artifact store backing warm
	// restarts: verified response bodies and whole-class reports are
	// written behind it, misses read through it, and GET/PUT
	// /v1/snapshot export/import it. The server uses the store but does
	// not own it — the caller (cmd/shelleyd) opens it before New and
	// closes it after Shutdown. nil disables persistence entirely.
	Store *store.Store

	// MaxSnapshotBytes bounds PUT /v1/snapshot bodies. 0 means 256 MiB.
	MaxSnapshotBytes int64

	// Limits is the per-request resource budget attached to every
	// pooled job's context: it bounds automata states, regex sizes, and
	// counterexample-search nodes so a pathological request returns a
	// structured budget error instead of pinning a worker and growing
	// memory without bound. The zero value means budget.Default();
	// explicitly unlimited daemons are not supported — set huge limits
	// instead.
	Limits budget.Limits

	// Mine enables the trace-ingestion and model-mining subsystem:
	// POST /v1/ingest accepts fleet trace observations, a background
	// loop mines per-class automata from them and diffs the result
	// against the statically inferred models, and GET /v1/drift serves
	// the verdicts. Off by default — the endpoints answer 404.
	Mine bool

	// MineInterval is the background mining-loop period. Ingest is
	// decoupled from learning: observations buffer in bounded corpora
	// and each tick re-mines only classes whose observed language grew.
	// 0 means 5s.
	MineInterval time.Duration

	// MineConfig tunes the miner (corpus bounds, class cap, learning
	// budget). Its Store field is overridden with Config.Store so mined
	// models and drift verdicts share the daemon's artifact store.
	MineConfig mine.Config

	// MaxIngestBytes bounds one /v1/ingest NDJSON frame. 0 means 8 MiB.
	MaxIngestBytes int64

	// MaxClientEvents bounds one client's in-flight ingested events
	// (each observation charges at least 1); beyond it the whole frame
	// is refused with 429 and a jittered Retry-After. Ingest therefore
	// sheds under overload — admission refusal at the HTTP layer, corpus
	// bounds underneath — and never blocks a reporting device. 0 means
	// 65536.
	MaxClientEvents int

	// MaxIngestInflight bounds in-flight ingested events across every
	// client (503 beyond). 0 means 4×MaxClientEvents.
	MaxIngestInflight int

	// Watch enables incremental re-verification sessions for edit
	// loops: POST /v1/watch pushes a source generation into a named
	// session (diffed at method granularity against the previous push,
	// only invalidated classes re-verified), GET /v1/watch long-polls
	// the session's next round. Off by default — the endpoints answer
	// 404.
	Watch bool

	// MaxWatchSessions bounds resident watch sessions; past it the
	// least-recently-used session is evicted (its pollers wake with
	// 404). 0 means 64.
	MaxWatchSessions int

	// WatchPollTimeout bounds one GET /v1/watch long-poll; a lapsed
	// poll answers 204 and the client re-polls. 0 means 25s.
	WatchPollTimeout time.Duration

	// Telemetry enables the in-process time-series engine: the metric
	// registry is snapshotted every TelemetryInterval into rolling
	// rings, SLOs are evaluated with burn-rate alerts, interesting
	// requests are tail-sampled into an exemplar ring with their span
	// trees, and GET /v1/status serves the result (JSON, or a
	// self-contained dashboard with ?format=html). Off by default —
	// /v1/status answers 404.
	Telemetry bool

	// TelemetryInterval is the engine's base snapshot period (the fine
	// ring's resolution). 0 means 1s.
	TelemetryInterval time.Duration

	// SLOs are the objectives the engine evaluates. Empty means two
	// defaults: check availability 99.9% and check latency p99 < 1ms
	// per telemetry.DefaultSLOs.
	SLOs []telemetry.SLO

	// ExemplarLatency is the fallback tail-sampling threshold for
	// endpoints without a latency SLO: a slower request is kept as an
	// exemplar. Endpoints with a latency SLO use its threshold.
	// 0 means 100ms.
	ExemplarLatency time.Duration

	// Exemplars bounds the exemplar ring. 0 means 64.
	Exemplars int

	// jobHook, when set, runs at the start of every pooled job — a
	// test-only seam that lets the suite hold workers at a barrier and
	// observe saturation, coalescing, and drain deterministically.
	jobHook func()

	// runHook, when set, runs inside the panic-contained execution
	// region of every pooled job, before the verification work — a
	// test-only seam for injecting panics to exercise containment.
	runHook func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CheckWorkers <= 0 {
		c.CheckWorkers = 1
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 4 << 20
	}
	if c.MaxModules <= 0 {
		c.MaxModules = 256
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxJobItems <= 0 {
		c.MaxJobItems = 4096
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxClientItems <= 0 {
		c.MaxClientItems = 2 * c.MaxBatchItems
	}
	if c.MaxBatchInflight <= 0 {
		c.MaxBatchInflight = 4 * c.MaxBatchItems
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = c.Workers
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 4 * c.MaxSourceBytes
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 256 << 20
	}
	if c.Limits.Unlimited() {
		c.Limits = budget.Default()
	}
	if c.MineInterval <= 0 {
		c.MineInterval = 5 * time.Second
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = 8 << 20
	}
	if c.MaxClientEvents <= 0 {
		c.MaxClientEvents = 65536
	}
	if c.MaxIngestInflight <= 0 {
		c.MaxIngestInflight = 4 * c.MaxClientEvents
	}
	if c.MaxWatchSessions <= 0 {
		c.MaxWatchSessions = 64
	}
	if c.WatchPollTimeout <= 0 {
		c.WatchPollTimeout = 25 * time.Second
	}
	if c.TelemetryInterval <= 0 {
		c.TelemetryInterval = time.Second
	}
	if len(c.SLOs) == 0 {
		c.SLOs = telemetry.DefaultSLOs()
	}
	if c.ExemplarLatency <= 0 {
		c.ExemplarLatency = 100 * time.Millisecond
	}
	return c
}

// Server is a shelleyd instance. Create with New, expose via Handler
// (any http.Server or test mux) or Start (own listener), stop with
// Shutdown.
type Server struct {
	cfg     Config
	modules *moduleCache
	pool    *pool
	met     *metrics
	mux     *http.ServeMux
	adm     *admission
	jobs    *jobStore
	store   *store.Store // nil when persistence is off

	// draining is the admission gate, set once by Shutdown and read
	// with one atomic load on every submission. stopping is cancelled
	// at the same flip: background loops (every) exit on it and parked
	// watch long-pollers answer 503 on it. loops tracks those loops.
	draining atomic.Bool
	stopping context.Context
	stop     context.CancelFunc
	loops    sync.WaitGroup

	// submitters tracks every goroutine that may submit pooled work
	// with blocking backpressure — sync batch handlers and async job
	// runners. drainCtx is their shared base context, canceled (with
	// errDraining as its cause) only when a Shutdown budget expires, so
	// admitted batches normally run to completion through a drain but a
	// submitter blocked in a queue send always unwinds before the pool
	// closes. submitMu makes the draining flip and submitter
	// registration mutually exclusive, so Shutdown's wait cannot miss a
	// registrant that raced the flip.
	submitMu    sync.Mutex
	submitters  sync.WaitGroup
	drainCtx    context.Context
	drainCancel context.CancelCauseFunc

	// miner and ingestAdm are non-nil iff Config.Mine; the mining loop
	// runs from New until stopping is cancelled, which also aborts any
	// round in progress.
	miner     *mine.Miner
	ingestAdm *admission

	// watch is non-nil iff Config.Watch.
	watch *watchStore

	// tracer is non-nil when Config.Tracing or Config.Telemetry (the
	// exemplar span trees need spans); ring only with Tracing; logger
	// is Config.Logger verbatim (nil = quiet).
	tracer *obs.Tracer
	ring   *obs.Ring
	logger *slog.Logger

	// engine and traceBuf are non-nil iff Config.Telemetry. The
	// telemetry loop ticks the engine from New until Shutdown;
	// latThresh holds the per-endpoint exemplar thresholds derived
	// from the latency SLOs.
	engine    *telemetry.Engine
	traceBuf  *obs.TraceBuffer
	latThresh map[string]time.Duration

	httpSrv  *http.Server
	listener net.Listener
}

// New returns a ready (but not yet listening) daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := newMetrics()
	s := &Server{
		cfg:     cfg,
		modules: newModuleCache(cfg.MaxModules, met, cfg.Store),
		met:     met,
		mux:     http.NewServeMux(),
		adm:     newAdmission(cfg.MaxClientItems, cfg.MaxBatchInflight, &met.batchRejected, &met.batchInflightItems),
		jobs:    newJobStore(cfg.MaxJobs),
		store:   cfg.Store,
		logger:  cfg.Logger,
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, met, &s.draining, cfg.jobHook)
	if cfg.Watch {
		s.watch = newWatchStore(cfg.MaxWatchSessions, &met.watchEvicted, &met.watchSessions)
	}
	s.drainCtx, s.drainCancel = context.WithCancelCause(context.Background())
	s.stopping, s.stop = context.WithCancel(context.Background())
	var tracerOpts []obs.Option
	if cfg.Tracing {
		size := cfg.TraceRingSize
		if size <= 0 {
			size = 4096
		}
		s.ring = obs.NewRing(size)
		tracerOpts = append(tracerOpts, obs.WithExporter(s.ring))
	}
	if cfg.Telemetry {
		// Retain every request's span tree briefly so tail sampling
		// can claim the interesting ones after the fact.
		s.traceBuf = obs.NewTraceBuffer(0, 0)
		tracerOpts = append(tracerOpts, obs.WithExporter(s.traceBuf))
		s.engine = telemetry.New(telemetry.Config{
			Tiers:     telemetryTiers(cfg.TelemetryInterval),
			SLOs:      cfg.SLOs,
			Exemplars: cfg.Exemplars,
			Source:    func() telemetry.Sample { return s.met.sample(s.pipelineStats(), s.store, s.mineSnap()) },
		})
		s.latThresh = make(map[string]time.Duration)
		for _, slo := range cfg.SLOs {
			if slo.Latency > 0 {
				if cur, ok := s.latThresh[slo.Endpoint]; !ok || slo.Latency < cur {
					s.latThresh[slo.Endpoint] = slo.Latency
				}
			}
		}
	}
	if len(tracerOpts) > 0 {
		s.tracer = obs.New(tracerOpts...)
	}
	s.mux.HandleFunc("POST /v1/check", s.instrument("check", s.handleCheck))
	s.mux.HandleFunc("POST /v1/infer", s.instrument("infer", s.handleInfer))
	s.mux.HandleFunc("POST /v1/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("POST /v1/check-batch", s.instrument("check-batch", s.handleCheckBatch))
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job-get", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/snapshot", s.instrument("snapshot-get", s.handleSnapshotGet))
	s.mux.HandleFunc("PUT /v1/snapshot", s.instrument("snapshot-put", s.handleSnapshotPut))
	s.mux.HandleFunc("POST /v1/watch", s.instrument("watch", s.handleWatchPost))
	s.mux.HandleFunc("GET /v1/watch", s.instrument("watch-poll", s.handleWatchGet))
	s.mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("GET /v1/drift", s.instrument("drift", s.handleDrift))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/trace-export", s.handleTraceExport)
	if cfg.Mine {
		mc := cfg.MineConfig
		mc.Store = cfg.Store
		if s.engine != nil {
			mc.OnVerdict = s.onMineVerdict
		}
		s.miner = mine.NewMiner(mc)
		s.ingestAdm = newAdmission(cfg.MaxClientEvents, cfg.MaxIngestInflight, &met.ingestRejected, &met.ingestInflightEvents)
		s.every(cfg.MineInterval, func(time.Time) { s.mineOnce() })
	}
	if s.engine != nil {
		// Prime at once so /v1/status answers within one interval of
		// boot instead of two; the loop is the only goroutine the
		// (passive) engine adds.
		s.engine.Tick(time.Now())
		s.every(cfg.TelemetryInterval, s.engine.Tick)
	}
	return s
}

// TraceSnapshot returns the buffered spans of the daemon's trace ring,
// oldest first; nil when tracing is off. cmd/shelleyd drains this into
// the -trace file at shutdown.
func (s *Server) TraceSnapshot() []obs.SpanData {
	if s.ring == nil {
		return nil
	}
	return s.ring.Snapshot()
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:9944"; port 0 picks a free
// port) and serves until Shutdown. It returns once the listener is
// accepting, with the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	// Serve errors after Shutdown are expected; others surface
	// through failing requests, which the clients observe.
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains the daemon. The contract: every admitted request —
// one accepted into the worker pool queue, a sync batch or async job
// past admission — runs to completion and its response is delivered.
// A request that has not reached admission when the drain begins gets
// a retryable 503 "daemon is draining"; healthz answers 503 too. Then
// the subsystems stop in order: background loops and parked watch
// long-pollers, the HTTP server, batch and job submitters, the worker
// pool, and last the store's write-behind queue. ctx bounds the wait;
// on expiry remaining work is abandoned and ctx's error returned.
// Shutdown is idempotent. This is what SIGTERM triggers in
// cmd/shelleyd.
func (s *Server) Shutdown(ctx context.Context) error {
	// The draining flip happens under submitMu so that, once it is
	// visible, addSubmitter can never admit another submitter — which
	// is what makes the submitters.Wait below a complete census.
	// Cancelling stopping at the same flip stops the mining and
	// telemetry loops (aborting a mining round in progress) and wakes
	// every parked watch long-poller with a 503: they hold no admitted
	// work, and without it each would stall the HTTP drain for up to a
	// full WatchPollTimeout.
	s.submitMu.Lock()
	s.draining.Store(true)
	s.stop()
	s.submitMu.Unlock()
	var err error
	if s.httpSrv != nil {
		// Waits for in-flight handlers — which wait for their pooled
		// jobs — so no accepted request is dropped mid-drain.
		err = s.httpSrv.Shutdown(ctx)
	}
	// Batch streams and async jobs are admitted work too: wait for
	// every registered submitter (sync batch handlers and job runner
	// goroutines), canceling their drain context only when the budget
	// expires. Cancellation unwinds submitters blocked in a queue send
	// promptly — recording the remaining items as canceled — which is
	// what makes the pool close below safe: http.Server.Shutdown never
	// cancels request contexts, so without this a batch handler could
	// still be parked in a channel send when the queue closes.
	unhook := context.AfterFunc(ctx, func() { s.drainCancel(errDraining) })
	s.submitters.Wait()
	unhook()
	// No submitter is left, so the queue can close and workers join.
	if perr := s.pool.close(ctx); perr != nil {
		return perr
	}
	// The store's write-behind queue is admitted work too: with every
	// worker and loop stopped no new Puts can arrive, so flushing here
	// (bounded by the same drain budget) guarantees a clean shutdown
	// loses no completed artifact or mined verdict. The caller owns the
	// store and closes it.
	s.loops.Wait()
	if s.store != nil {
		if ferr := s.store.Flush(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// addSubmitter registers a goroutine that may submit pooled work with
// blocking backpressure (a sync batch handler or an async job runner),
// refusing once draining has begun. Registration and the draining flip
// share submitMu: a submitter is either counted before Shutdown waits,
// or sees draining and backs off — never neither, which is the
// invariant pool.close relies on. Every true return must be paired
// with exactly one s.submitters.Done().
func (s *Server) addSubmitter() bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.submitters.Add(1)
	return true
}

// refuseDraining answers a request that reached no admission before
// the drain began: a retryable 503.
func (s *Server) refuseDraining(w http.ResponseWriter) int {
	w.Header().Set("Retry-After", "2")
	return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
}

// reqInfo rides the request context so execute can report back to
// instrument whether this request was coalesced onto another's work.
type reqInfoKey struct{}

type reqInfo struct{ coalesced atomic.Bool }

// instrument wraps a handler with inflight/latency/status accounting,
// a per-request root span (trace ID taken from the X-Shelley-Trace
// header when valid, generated otherwise, and always echoed back in
// the response header), and one structured access-log record.
func (s *Server) instrument(endpoint string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	spanName := "http." + endpoint // hoisted off the per-request path
	ep := s.met.endpoint(endpoint) // pre-registered: observe is lock-free
	return func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get("X-Shelley-Trace")
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		// The header goes out even with tracing off: request/response
		// correlation must not depend on the span ring being enabled.
		w.Header().Set("X-Shelley-Trace", traceID)
		info := &reqInfo{}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		var span *obs.Span
		if s.tracer != nil {
			ctx, span = s.tracer.StartRoot(ctx, spanName, traceID,
				obs.String("method", r.Method), obs.String("path", r.URL.Path))
		}
		r = r.WithContext(ctx)

		s.met.inflight.Add(1)
		start := time.Now()
		code := h(w, r)
		s.met.inflight.Add(-1)
		elapsed := time.Since(start)
		ep.observe(code, elapsed)

		span.SetAttr(obs.Int("status", code), obs.Bool("coalesced", info.coalesced.Load()))
		span.End()
		// Tail sampling runs after span.End so the exemplar can claim
		// the finished root span from the trace buffer.
		s.maybeExemplar(endpoint, traceID, code, elapsed)
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "access",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Duration("duration", elapsed),
				slog.Bool("coalesced", info.coalesced.Load()),
				slog.String("trace", traceID))
		}
	}
}

// writeError emits the uniform error body. A failed write is counted
// rather than surfaced: once WriteHeader has run the status is
// committed, so a mid-body disconnect can only truncate the response —
// the shelleyd_response_write_errors_total counter is the audit trail
// that it happened.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) int {
	return s.writeRaw(w, status, refusal(msg))
}

// writeRaw replays a coalesced call's byte-exact response. Write
// failures are counted like writeError's.
func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.met.writeErrors.Add(1)
	}
	return status
}

// fingerprint validates a request's (source, fingerprint) pair and
// hashes the source, once per request. A refusal comes back as a status
// and its body: 400 for neither or a mismatch, 413 for a source past the
// per-source limit (reachable only in a batch, whose body is larger).
func (s *Server) fingerprint(source, fp string) (string, int, []byte) {
	switch {
	case source == "" && fp == "":
		return "", http.StatusBadRequest, refusal("item needs source or fingerprint")
	case source == "":
		return fp, 0, nil
	case int64(len(source)) > s.cfg.MaxSourceBytes:
		return "", http.StatusRequestEntityTooLarge, refusal("item source exceeds the per-source byte limit")
	}
	computed := client.Fingerprint(source)
	if fp != "" && fp != computed {
		return "", http.StatusBadRequest, refusal("fingerprint does not match source")
	}
	return computed, 0, nil
}

// resolve returns fp's module entry, loading it from source when needed,
// and checks that a named class exists. A refusal comes back as a status
// and its body: 404 for an unknown fingerprint or class, 422 for an
// unloadable source. err is non-nil only when ctx ended first.
func (s *Server) resolve(ctx context.Context, fp, source, class string) (*moduleEntry, int, []byte, error) {
	e, err := s.modules.get(ctx, fp, source)
	switch {
	case errors.Is(err, errNotResident):
		return nil, http.StatusNotFound, refusal("module " + fp + " not resident; re-POST its source"), nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.met.timeoutWait.Add(1)
		return nil, 0, nil, err
	case err != nil:
		return nil, http.StatusUnprocessableEntity, refusal(err.Error()), nil
	}
	if class != "" {
		if _, ok := e.mod.Class(class); !ok {
			return nil, http.StatusNotFound, refusal("class " + class + " not found"), nil
		}
	}
	return e, 0, nil, nil
}

// resolveModule is fingerprint and resolve for an infer or trace
// request, writing any refusal as the response.
func (s *Server) resolveModule(w http.ResponseWriter, r *http.Request, source, fp, class string) (*moduleEntry, string, int) {
	fp, status, body := s.fingerprint(source, fp)
	var e *moduleEntry
	var err error
	if status == 0 {
		e, status, body, err = s.resolve(r.Context(), fp, source, class)
	}
	if err == nil && status == 0 {
		return e, fp, 0
	}
	return nil, "", s.reply(w, status, body, err)
}

// launch submits fn to the worker pool and hands settle exactly one
// result: fn's own, a 500 when fn panics, a 504 when the job expires in
// the queue, or a 503 when submission is refused. block selects the
// submission discipline: single-shot requests shed load (a full queue
// answers 503 at once), batch items exert backpressure (the submission
// blocks until a worker frees a slot or rctx ends).
func (s *Server) launch(rctx context.Context, block bool, fn func(ctx context.Context) (int, []byte), settle func(status int, body []byte)) {
	// Pooled jobs run under the pool's deadline context, not the
	// request's; the carrier re-attaches the leader's tracer and
	// root span so the work still nests under the request trace.
	carrier := obs.Carry(rctx)
	j := job{
		deadline: time.Now().Add(s.cfg.RequestTimeout),
		run: func(ctx context.Context) {
			// A panic anywhere in the verification pipeline must not
			// kill the daemon or strand the waiters: it is contained
			// here, counted, and answered as a 500.
			defer func() {
				if rec := recover(); rec != nil {
					s.met.panics.Add(1)
					settle(errorBody(http.StatusInternalServerError,
						fmt.Sprintf("internal error: verification panicked: %v", rec)))
				}
			}()
			if s.cfg.runHook != nil {
				s.cfg.runHook()
			}
			// Every pooled job runs under the configured resource
			// budget; pipeline constructions read it from the context.
			settle(fn(budget.With(carrier.Context(ctx), s.cfg.Limits)))
		},
		expired: func() { settle(errorBody(http.StatusGatewayTimeout, "request expired in queue")) },
	}
	var err error
	if block {
		err = s.pool.submitCtx(rctx, j)
	} else {
		err = s.pool.submit(j)
	}
	if err != nil {
		msg := "queue saturated; retry later"
		switch {
		case errors.Is(err, errDraining):
			msg = "daemon is draining"
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			msg = "request ended before submission: " + err.Error()
		}
		settle(errorBody(http.StatusServiceUnavailable, msg))
	}
}

// do runs key on table t: the first request for the key leads and
// launches fn, identical requests in flight follow it. memo keeps a
// settled 200 as key's memo entry (check calls only).
func (s *Server) do(rctx context.Context, t *callTable, key string, memo, block bool, fn func(ctx context.Context) (int, []byte)) (c *call, coalesced bool) {
	c, leader := t.join(key)
	if !leader {
		s.met.coalesced.Add(1)
		return c, true
	}
	s.launch(rctx, block, fn, func(status int, body []byte) { t.settle(key, c, memo, status, body) })
	return c, false
}

// markCoalesced tells instrument that this request was answered by
// another request's execution (the access log's coalesced flag).
func markCoalesced(ctx context.Context) {
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		info.coalesced.Store(true)
	}
}

// wait returns c's response once it settles, or ctx's error when this
// waiter's own context ends first; the call continues for the others.
func (s *Server) wait(ctx context.Context, c *call) (int, []byte, error) {
	select {
	case <-c.done:
		return c.status, c.body, nil
	case <-ctx.Done():
		s.met.timeoutWait.Add(1)
		return 0, nil, ctx.Err()
	}
}

// reply writes a response, or the 504 of a waiter whose own context
// ended first (err non-nil).
func (s *Server) reply(w http.ResponseWriter, status int, body []byte, err error) int {
	if err != nil {
		return s.writeError(w, http.StatusGatewayTimeout, "request context ended: "+err.Error())
	}
	return s.writeRaw(w, status, body)
}

// execute is the infer and trace path: a call on the module's table,
// never memoized, shedding on a full queue.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, e *moduleEntry, key string, fn func(ctx context.Context) (int, []byte)) int {
	c, coalesced := s.do(r.Context(), &e.calls, key, false, false, fn)
	if coalesced {
		markCoalesced(r.Context())
	}
	status, body, err := s.wait(r.Context(), c)
	return s.reply(w, status, body, err)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) int {
	var req client.CheckRequest
	if err := decodeBody(w, r, s.cfg.MaxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	status, body, coalesced, err := s.check(r.Context(), req, false)
	if coalesced {
		markCoalesced(r.Context())
	}
	return s.reply(w, status, body, err)
}

// check is the one check path of /v1/check and every batch item. After
// validation it answers from the first layer that can: the resident
// module's memo, the store's persisted body, or a call on the module's
// table. The body layers need only the fingerprint, so a restarted
// daemon answers a fingerprint-only check from the store without the
// module resident; serving them before the class-existence check is
// sound because only answers of 200 are memoized or persisted.
//
// It returns the response /v1/check writes and a batch record embeds,
// and whether it was coalesced. err is non-nil only when ctx ended
// first. block is the submission discipline (see launch).
func (s *Server) check(ctx context.Context, req client.CheckRequest, block bool) (status int, body []byte, coalesced bool, err error) {
	fp, status, body := s.fingerprint(req.Source, req.Fingerprint)
	if status != 0 {
		return status, body, false, nil
	}
	key := checkKey(fp, req.Class, req.Precise)
	if body, ok := s.modules.memo(fp, key); ok {
		s.met.bodyCacheHits.Add(1)
		return http.StatusOK, body, false, nil
	}
	if s.store != nil {
		if body, ok := s.store.Get(storeBodyKey(key)); ok {
			// Memoize it on the module when resident, so the next
			// repeat skips the disk too.
			s.met.storeBodyHits.Add(1)
			if e := s.modules.settled(fp); e != nil {
				if c, leader := e.calls.join(key); leader {
					e.calls.settle(key, c, true, http.StatusOK, body)
				}
			}
			return http.StatusOK, body, false, nil
		}
	}
	e, status, body, err := s.resolve(ctx, fp, req.Source, req.Class)
	if err != nil || status != 0 {
		return status, body, false, err
	}
	c, coalesced := s.do(ctx, &e.calls, key, true, block, s.checkFn(e.mod, fp, req.Class, req.Precise))
	status, body, err = s.wait(ctx, c)
	return status, body, coalesced, err
}

// storeBodyKey namespaces persisted response bodies apart from the
// persisted pipeline artifacts sharing the durable store.
func storeBodyKey(key string) string { return "body\x00" + key }

// checkKey is the call-table key of a check, the same for /v1/check and
// every batch item, so identical work collapses to one call per module.
func checkKey(fp, class string, precise bool) string {
	return strings.Join([]string{"check", fp, class, fmt.Sprint(precise)}, "\x00")
}

// checkFn builds the pooled verification closure for one (module,
// class, precise) triple; its byte output is what /v1/check responds
// and what a batch record embeds.
func (s *Server) checkFn(mod *shelley.Module, fp, class string, precise bool) func(ctx context.Context) (int, []byte) {
	return func(ctx context.Context) (int, []byte) {
		var reports []*shelley.Report
		var err error
		if class != "" {
			cls, _ := mod.Class(class)
			var opts []check.Option
			if precise {
				opts = append(opts, check.Precise())
			}
			var rep *shelley.Report
			rep, err = cls.CheckContext(ctx, opts...)
			if rep != nil {
				reports = []*shelley.Report{rep}
			}
		} else if precise {
			reports, err = checkAllPrecise(ctx, mod)
		} else {
			reports, err = mod.CheckAllContext(ctx, s.cfg.CheckWorkers)
		}
		if err != nil {
			return s.checkErrorBody(ctx, err)
		}
		ok := true
		for _, rep := range reports {
			ok = ok && rep.OK()
		}
		status, body := jsonBody(client.CheckResponse{Fingerprint: fp, OK: ok, Reports: reports})
		if status == http.StatusOK && s.store != nil {
			// Write the success behind the durable store so the next
			// process boots warm (the call table memoizes it in memory).
			// Errors never stick in either layer.
			s.store.Put(storeBodyKey(checkKey(fp, class, precise)), body)
		}
		return status, body
	}
}

// checkErrorBody maps a verification error to its response: budget
// exhaustion is the client's problem (422, counted), a fired deadline
// is a timeout (504), anything else is unprocessable input (422).
func (s *Server) checkErrorBody(ctx context.Context, err error) (int, []byte) {
	if errors.Is(err, budget.ErrExceeded) {
		s.met.budgetExceeded.Add(1)
		return errorBody(http.StatusUnprocessableEntity, "resource budget exceeded: "+err.Error())
	}
	if ctx.Err() != nil || errors.Is(err, budget.ErrCanceled) {
		return errorBody(http.StatusGatewayTimeout, "check timed out: "+err.Error())
	}
	return errorBody(http.StatusUnprocessableEntity, err.Error())
}

// checkAllPrecise is the precise-mode module sweep: per-class Check
// with the Precise option, honoring ctx between classes.
func checkAllPrecise(ctx context.Context, mod *shelley.Module) ([]*shelley.Report, error) {
	classes := mod.Classes()
	out := make([]*shelley.Report, 0, len(classes))
	for _, c := range classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := c.CheckContext(ctx, shelley.Precise())
		if err != nil {
			return nil, fmt.Errorf("checking %s: %w", c.Name(), err)
		}
		out = append(out, rep)
	}
	return out, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) int {
	var req client.InferRequest
	if err := decodeBody(w, r, s.cfg.MaxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Class == "" {
		return s.writeError(w, http.StatusBadRequest, "infer needs a class")
	}
	e, fp, errCode := s.resolveModule(w, r, req.Source, req.Fingerprint, req.Class)
	if e == nil {
		return errCode
	}
	cls, _ := e.mod.Class(req.Class)
	key := strings.Join([]string{"infer", fp, req.Class, req.Operation}, "\x00")
	return s.execute(w, r, e, key, func(ctx context.Context) (int, []byte) {
		ops := cls.Operations()
		if req.Operation != "" {
			ops = []string{req.Operation}
		}
		resp := client.InferResponse{Fingerprint: fp, Class: req.Class}
		for _, op := range ops {
			if err := ctx.Err(); err != nil {
				return errorBody(http.StatusGatewayTimeout, "infer timed out: "+err.Error())
			}
			raw, err := cls.Behavior(op)
			if err != nil {
				return errorBody(http.StatusNotFound, err.Error())
			}
			simp, err := cls.BehaviorSimplified(op)
			if err != nil {
				return errorBody(http.StatusNotFound, err.Error())
			}
			resp.Behaviors = append(resp.Behaviors, client.OperationBehavior{
				Operation: op, Behavior: raw, Simplified: simp,
			})
		}
		return jsonBody(resp)
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) int {
	var req client.TraceRequest
	if err := decodeBody(w, r, s.cfg.MaxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Class == "" {
		return s.writeError(w, http.StatusBadRequest, "trace needs a class")
	}
	e, fp, errCode := s.resolveModule(w, r, req.Source, req.Fingerprint, req.Class)
	if e == nil {
		return errCode
	}
	cls, _ := e.mod.Class(req.Class)
	key := strings.Join([]string{"trace", fp, req.Class, fmt.Sprint(req.Replay), strings.Join(req.Trace, "\x01")}, "\x00")
	return s.execute(w, r, e, key, func(ctx context.Context) (int, []byte) {
		resp := client.TraceResponse{
			Fingerprint: fp,
			Class:       req.Class,
			Trace:       req.Trace,
			Accepted:    cls.RunTrace(req.Trace),
		}
		if req.Replay {
			if err := cls.ReplayFlat(req.Trace); err != nil {
				resp.ReplayError = err.Error()
			}
		}
		return jsonBody(resp)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.store != nil && s.store.Degraded() {
		// Still 200: every store failure degrades to recompute-and-serve,
		// so the daemon is healthy — but the disk needs an operator.
		io.WriteString(w, "ok (store degraded)\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// handleSnapshotGet streams the store's verified entries as one
// snapshot — the export half of pre-warming a fresh instance.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) int {
	if s.store == nil {
		return s.writeError(w, http.StatusNotFound, "no artifact store configured; start shelleyd with -store-dir")
	}
	// Catch the write-behind queue up first (bounded by the request's
	// deadline) so the snapshot includes this process's freshest work; a
	// flush failure only means those entries are absent, not an error.
	_ = s.store.Flush(r.Context())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.store.WriteSnapshot(w); err != nil {
		// The status line is committed; a mid-stream failure can only
		// truncate, which the importer's framing detects and rejects.
		s.met.writeErrors.Add(1)
	}
	return http.StatusOK
}

// handleSnapshotPut imports a snapshot stream into the store. Damaged
// records are skipped and counted server-side; a structurally broken
// stream answers 400 (entries imported before the break are kept —
// they verified individually).
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) int {
	if s.store == nil {
		return s.writeError(w, http.StatusNotFound, "no artifact store configured; start shelleyd with -store-dir")
	}
	imported, skipped, err := s.store.ReadSnapshot(http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes))
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"snapshot import aborted after %d imported, %d skipped: %v", imported, skipped, err))
	}
	status, body := jsonBody(client.SnapshotImportResponse{Imported: imported, Skipped: skipped})
	return s.writeRaw(w, status, body)
}

// handleTraceExport serves the in-memory span ring as Chrome
// trace-event JSON (default) or OTLP JSON (?format=otlp) — the debug
// window into a live daemon's recent work.
func (s *Server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		s.writeError(w, http.StatusNotFound, "tracing disabled; start shelleyd with -trace or -trace-ring")
		return
	}
	spans := s.ring.Snapshot()
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = obs.WriteChromeTrace(w, spans)
	case "otlp":
		w.Header().Set("Content-Type", "application/json")
		err = obs.WriteOTLP(w, spans)
	default:
		s.writeError(w, http.StatusBadRequest, "unknown trace format "+format+" (want chrome or otlp)")
		return
	}
	if err != nil && s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "trace-export write failed",
			slog.String("error", err.Error()))
	}
}

// pipelineStats totals the pipeline caches of every module and watch
// session the daemon has held, resident or evicted: the source of the
// monotonic shelleyd_pipeline_stage_total counter.
func (s *Server) pipelineStats() pipeline.Stats {
	ps := s.modules.stats()
	if s.watch != nil {
		ps = ps.Add(s.watch.stats())
	}
	return ps
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.met.render(&b, s.pipelineStats(), s.store, s.mineSnap())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// decodeBody reads a JSON request bounded by maxBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// jsonBody marshals a pooled-work response.
func jsonBody(v any) (int, []byte) {
	body, err := json.Marshal(v)
	if err != nil {
		return errorBody(http.StatusInternalServerError, "encoding response: "+err.Error())
	}
	return http.StatusOK, body
}

// errorBody marshals a pooled-work error response.
func errorBody(status int, msg string) (int, []byte) {
	body, _ := json.Marshal(client.ErrorResponse{Error: msg})
	return status, body
}

// refusal is the body of an error answered before any pooled work: the
// newline-terminated line a json.Encoder writes.
func refusal(msg string) []byte {
	_, body := errorBody(0, msg)
	return append(body, '\n')
}
