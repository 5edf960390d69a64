package server

import (
	"sync"
	"time"
)

// broadcast is a level-triggered change signal for any number of
// waiters. A waiter takes wait()'s channel before reading the state it
// guards, then blocks on it: notify closes that channel and installs a
// fresh one, so every holder of the old channel wakes exactly once per
// notify; end closes the channel for good, so every later wait returns
// a closed channel. A notify after end is a no-op.
type broadcast struct {
	mu    sync.Mutex
	ch    chan struct{}
	ended bool
}

func newBroadcast() *broadcast { return &broadcast{ch: make(chan struct{})} }

// wait returns the channel that closes on the next notify or end.
func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ch
}

func (b *broadcast) notify() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ended {
		close(b.ch)
		b.ch = make(chan struct{})
	}
}

func (b *broadcast) end() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ended {
		b.ended = true
		close(b.ch)
	}
}

// every runs fn each interval on a goroutine tracked by s.loops until
// the stopping context is cancelled. Shutdown waits on s.loops before
// flushing the store, so whatever a cancelled round wrote is flushed.
func (s *Server) every(interval time.Duration, fn func(now time.Time)) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopping.Done():
				return
			case now := <-t.C:
				fn(now)
			}
		}
	}()
}
