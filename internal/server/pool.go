package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errSaturated is returned by submit when the queue is full;
// errDraining when the daemon has begun shutdown. Both map to 503.
var (
	errSaturated = errors.New("server: queue saturated")
	errDraining  = errors.New("server: draining")
)

// job is one unit of pooled work: run computes the response for a
// coalesced call; deadline is the server-policy execution deadline
// (always set, at admission, so time spent queued counts against it).
type job struct {
	run      func(ctx context.Context)
	expired  func() // invoked instead of run when the deadline passed in the queue
	deadline time.Time
}

// pool is a fixed-size worker pool with a bounded queue. Saturation is
// load shedding, not backpressure: a full queue rejects immediately
// (the caller answers 503) instead of holding the connection hostage.
type pool struct {
	jobs chan job

	// sendMu fences non-blocking sends against close: senders hold it
	// shared, close exclusively, so a send racing a drain-budget-expired
	// shutdown observes closed and answers 503 instead of panicking.
	// Blocking sends cannot hold it across the send; see submitCtx.
	sendMu sync.RWMutex
	closed bool

	// live counts running workers; the last one out closes stopped.
	// Nothing cancels a running job but its own deadline: draining
	// means finishing admitted work.
	live    atomic.Int32
	stopped chan struct{}

	// draining is the server's drain flag: once set, submit refuses.
	draining *atomic.Bool
	met      *metrics

	// hook runs at the start of every job when non-nil (test seam).
	hook func()
}

// newPool starts workers goroutines servicing a queue of depth queue.
func newPool(workers, queue int, met *metrics, draining *atomic.Bool, hook func()) *pool {
	p := &pool{
		jobs:     make(chan job, queue),
		stopped:  make(chan struct{}),
		draining: draining,
		met:      met,
		hook:     hook,
	}
	p.live.Store(int32(workers))
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker counts a job busy from the moment it leaves the queue, so
// queue depth plus busy workers counts every admitted, unfinished job.
func (p *pool) worker() {
	defer func() {
		if p.live.Add(-1) == 0 {
			close(p.stopped)
		}
	}()
	for j := range p.jobs {
		p.met.queueDepth.Add(-1)
		p.met.workersBusy.Add(1)
		if p.hook != nil {
			p.hook()
		}
		if time.Now().After(j.deadline) {
			// The job sat in the queue past its whole budget; answer
			// 504 without burning a worker on work nobody is awaiting.
			p.met.timeoutQueue.Add(1)
			j.expired()
		} else {
			ctx, cancel := context.WithDeadline(context.Background(), j.deadline)
			j.run(ctx)
			cancel()
		}
		p.met.workersBusy.Add(-1)
	}
}

// trySend is the non-blocking enqueue attempt shared by both submit
// disciplines: sent on success, closed when the pool already shut.
func (p *pool) trySend(j job) (sent, closed bool) {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false, true
	}
	select {
	case p.jobs <- j:
		p.met.queueDepth.Add(1)
		return true, false
	default:
		return false, false
	}
}

// submit enqueues a job, rejecting instead of blocking when the queue
// is full or the pool is draining.
func (p *pool) submit(j job) error {
	if p.draining.Load() {
		p.met.saturated.Add(1)
		return errDraining
	}
	sent, closed := p.trySend(j)
	if sent {
		return nil
	}
	p.met.saturated.Add(1)
	if closed {
		return errDraining
	}
	return errSaturated
}

// submitCtx enqueues a job with backpressure: when the queue is full
// it blocks until a worker frees a slot or ctx ends, instead of
// shedding like submit. This is the batch path — a batch was admitted
// as a whole, so its items stall the stream (a paused NDJSON stream,
// TCP backpressure) rather than fail, and it deliberately does not
// check draining. The blocking send is safe against close because
// every caller is a registered submitter (Server.addSubmitter), and
// Shutdown unwinds them all before it closes the pool.
func (p *pool) submitCtx(ctx context.Context, j job) error {
	sent, closed := p.trySend(j)
	if sent {
		return nil
	}
	if closed {
		return errDraining
	}
	p.met.batchBackpressure.Add(1)
	select {
	case p.jobs <- j:
		p.met.queueDepth.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the queue and waits, bounded by ctx, for every admitted
// job to finish and the workers to exit. Idempotent: a later call only
// waits. Call only after draining is set and no goroutine can block in
// submitCtx (see its comment); racing non-blocking submits are fenced
// off by sendMu.
func (p *pool) close(ctx context.Context) error {
	p.sendMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.sendMu.Unlock()
	select {
	case <-p.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
