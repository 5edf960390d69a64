package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is a closed loop: each of the conns connections
// sends its next request only after the previous answer arrived. An
// open loop was measured and rejected: time.Sleep fires at about 1.1 ms
// granularity on the reference box, so a 5,000 req/s schedule measured
// the timer (p99 spread 2.2-10.2 ms across identical runs), while a
// 2-connection closed loop repeated within a tenth.

// A statistics window is a stretch of consecutive ops that lasts at
// least windowTime (longer than the daemon's periodic work, such as its
// 1 s telemetry tick) and holds at least windowOps ops (so 10 samples
// lie beyond its p99); in a phase made of separate passes, each pass is
// a window. A phase with at least minWindows windows reports the median
// over its windows, which keeps a burst of outside load in one window
// from moving the run's figures (its p99 is pooled when windows are too
// small for their own); other phases report their pooled samples.
//
// Windows are summarized as they close, so the generator keeps only the
// open window's samples and the first maxPooled samples of the phase:
// its memory does not grow with the op count, and what it keeps at the
// end of a pass is small next to the daemon's heap.
const (
	windowOps  = 1000
	windowTime = time.Second
	minWindows = 3
	maxPooled  = 1 << 14
)

// window is the summary of one closed statistics window.
type window struct {
	ops           int
	thr, p50, p99 float64 // ops/s, seconds, seconds
}

// phase accumulates one measured phase's ops.
type phase struct {
	mu         sync.Mutex
	continuous bool      // ops come from run, not from separate passes
	opened     time.Time // start of the open window
	open       []float64 // latencies (s) of the open window
	windows    []window
	pooled     []float64 // the phase's first maxPooled latencies
	sum        float64   // of all latencies, for the mean
	samples    int
	busy       time.Duration // summed over connections: time inside ops
	attempts   atomic.Int64
	failures   atomic.Int64
	wrong      atomic.Int64 // wrong verdicts or bodies: the run is incorrect
	elapsed    time.Duration
	firstErr   atomic.Value
}

func newPhase() *phase { return &phase{pooled: make([]float64, 0, maxPooled)} }

func (p *phase) record(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := d.Seconds()
	p.open = append(p.open, s)
	if len(p.pooled) < maxPooled {
		p.pooled = append(p.pooled, s)
	}
	p.sum += s
	p.samples++
	if p.continuous && len(p.open) >= windowOps {
		if age := time.Since(p.opened); age >= windowTime {
			p.closeWindow(age)
		}
	}
}

// closeWindow summarizes the open window, which lasted d. p.mu is held.
func (p *phase) closeWindow(d time.Duration) {
	sort.Float64s(p.open)
	p.windows = append(p.windows, window{
		ops: len(p.open),
		thr: float64(len(p.open)) / d.Seconds(),
		p50: quantileSorted(p.open, 0.5),
		p99: quantileSorted(p.open, 0.99),
	})
	p.open = p.open[:0]
	p.opened = time.Now()
}

// fail counts a failed op; wrong marks it as a wrong answer, which
// makes the whole run incorrect.
func (p *phase) fail(err error, wrong bool) {
	p.failures.Add(1)
	if wrong {
		p.wrong.Add(1)
	}
	p.firstErr.CompareAndSwap(nil, err.Error())
}

func (p *phase) errText() string {
	if s, ok := p.firstErr.Load().(string); ok {
		return s
	}
	return ""
}

// run drives op over n connections until the deadline; op receives
// the global op index (a single sequence shared by all connections, so
// the inputs sent do not depend on which connection sends them). The
// window still open at the deadline is dropped.
func (p *phase) run(n int, seconds float64, op func(i uint64) error) {
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	p.mu.Lock()
	p.continuous, p.opened = true, start
	p.mu.Unlock()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var busy time.Duration
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				p.attempts.Add(1)
				t0 := time.Now()
				if err := op(i); err != nil {
					p.fail(err, false)
				}
				busy += time.Since(t0)
			}
			p.mu.Lock()
			p.busy += busy
			p.mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed += time.Since(start)
	p.mu.Lock()
	p.open = nil
	p.mu.Unlock()
}

// endPass closes one pass of a phase made of separate passes; the pass
// is one statistics window.
func (p *phase) endPass(d time.Duration) {
	p.mu.Lock()
	p.closeWindow(d)
	p.open = nil
	p.elapsed += d
	p.busy += d
	p.mu.Unlock()
}

// summary is a phase's end-to-end figures: ops per second and the
// latency median and p99 in seconds.
type summary struct{ throughput, p50, p99 float64 }

func (p *phase) summary() summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	pooled := append([]float64(nil), p.pooled...)
	sort.Float64s(pooled)
	if len(p.windows) < minWindows {
		ok := float64(p.attempts.Load() - p.failures.Load())
		return summary{ok / p.elapsed.Seconds(), quantileSorted(pooled, 0.5), quantileSorted(pooled, 0.99)}
	}
	var thr, p50, p99 []float64
	smallWindows := false
	for _, w := range p.windows {
		thr = append(thr, w.thr)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		smallWindows = smallWindows || w.ops < windowOps
	}
	out := summary{median(thr), median(p50), median(p99)}
	if smallWindows {
		// Too few samples per window for its own p99.
		out.p99 = quantileSorted(pooled, 0.99)
	}
	return out
}

func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// clientLoop is the mean time per recorded op that the load generator
// spends outside the request on the connection that sends it:
// generating and rendering the input, marshalling the request,
// decoding the response and checking the verdict. On the benchmark's
// CPUs this time competes with the daemon, so it is part of what
// throughput_ops_s measures without being the program's own.
func (p *phase) clientLoop() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return (p.busy.Seconds() - p.sum) / float64(max(1, p.samples))
}

func (p *phase) meanLatency() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sum / float64(max(1, p.samples))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// Tracing. Spans are recorded by the benchmark around its own calls
// into each layer — the client request on one side, the daemon's
// Handler().ServeHTTP on the other — and kept in memory until the run
// writes them out. The program runs no tracer.

const spanHeader = "X-Bench-Span"

type span struct {
	id, parent uint64
	name       string
	start, end time.Duration // since the log's origin
}

type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// handler maps a client span to its daemon-side handler duration.
	handler map[uint64]time.Duration
	dropped int
}

const maxSpans = 1 << 18

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), handler: make(map[uint64]time.Duration)}
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if s.name == "server.handler" {
		l.handler[s.parent] = s.end - s.start
	}
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// wrap times the daemon's handler. net/http builds the request and the
// response writer before the timed region starts.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := time.Since(l.origin)
		h.ServeHTTP(w, r)
		l.add(span{id: parent + 1, parent: parent, name: "server.handler", start: start, end: time.Since(l.origin)})
	})
}

// spanID is the client span of op i; the daemon-side span of the same
// request is spanID(i)+1.
func spanID(i uint64) uint64 { return 2 * (i + 1) }

// client records the client-side span id around fn and returns its
// duration.
func (l *spanLog) client(id uint64, fn func() error) (time.Duration, error) {
	start := time.Since(l.origin)
	err := fn()
	end := time.Since(l.origin)
	l.add(span{id: id, name: "client.request", start: start, end: end})
	return end - start, err
}

// handlerTime is the daemon-side time of the request whose client span
// is id.
func (l *spanLog) handlerTime(id uint64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.handler[id]
	return d, ok
}

// clientTimes maps every client span to its duration.
func (l *spanLog) clientTimes() map[uint64]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64]time.Duration, len(l.spans)/2)
	for _, s := range l.spans {
		if s.name == "client.request" {
			out[s.id] = s.end - s.start
		}
	}
	return out
}

// write dumps the spans as NDJSON (one span per line, times in ns).
func (l *spanLog) write(path string, machine map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"machine\":%s,\"dropped\":%d}\n", mustJSON(machine), l.dropped)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
