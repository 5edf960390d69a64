package server

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/store"
)

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestBroadcast pins the change-broadcast contract: a waiter holding the
// current channel wakes exactly once per notify (the next wait hands out
// a fresh, open channel), end closes it for good, and notify after end
// neither panics nor reopens it.
func TestBroadcast(t *testing.T) {
	b := newBroadcast()
	first := b.wait()
	if closed(first) {
		t.Fatal("fresh broadcast channel is closed")
	}
	if b.wait() != first {
		t.Fatal("wait without a change handed out a different channel")
	}

	// Every holder of the old channel wakes on one notify.
	const waiters = 8
	woke := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func() { <-first; woke <- struct{}{} }()
	}
	b.notify()
	for i := 0; i < waiters; i++ {
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d waiters woke on notify", i, waiters)
		}
	}

	// Exactly once: the next channel is fresh and stays open until the
	// next notify, which closes it and nothing else.
	second := b.wait()
	if second == first || closed(second) {
		t.Fatal("notify did not install a fresh open channel")
	}
	b.notify()
	if !closed(second) {
		t.Fatal("second notify did not close the channel its waiters hold")
	}
	third := b.wait()
	if closed(third) {
		t.Fatal("channel after the second notify is already closed")
	}

	// end is permanent: the held channel closes, every later wait
	// returns a closed channel, and notify/end after it are no-ops.
	b.end()
	if !closed(third) {
		t.Fatal("end did not close the held channel")
	}
	b.notify()
	b.end()
	if !closed(b.wait()) {
		t.Fatal("notify after end reopened the broadcast")
	}
}

// settleGoroutines polls until the goroutine count is at most want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, want at most %d:\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownStopsEverySubsystem: Shutdown leaves no goroutine behind —
// not the workers, the mining and telemetry loops, parked watch pollers,
// nor the HTTP server — on a daemon with every subsystem on and on one
// with none; and a second Shutdown returns at once without error.
func TestShutdownStopsEverySubsystem(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"none", func(*testing.T) Config { return Config{Workers: 2} }},
		{"all", func(t *testing.T) Config {
			st, err := store.Open(store.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return Config{
				Workers: 2, Store: st, Tracing: true, Watch: true,
				Mine: true, MineInterval: time.Millisecond,
				Telemetry: true, TelemetryInterval: time.Millisecond,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			baseline := runtime.NumGoroutine()
			srv := New(cfg)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tr := &http.Transport{}
			cl := client.New("http://"+addr, client.WithHTTPClient(&http.Client{Transport: tr}))
			ctx := context.Background()
			if err := cl.WaitReady(ctx, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(2, "life")}); err != nil {
				t.Fatal(err)
			}
			polled := make(chan error, 1)
			if srv.watch != nil {
				if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: watchSource("op0")}); err != nil {
					t.Fatal(err)
				}
				go func() { _, err := cl.Watch(ctx, "s", 1); polled <- err }()
				waitMetric(t, scrapeClient(addr), "shelleyd_inflight_requests", 1)
			} else {
				polled <- nil
			}

			shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := <-polled; srv.watch != nil && err == nil {
				t.Fatal("parked watch poller answered without error through a drain")
			}
			// The client's side of the closed connections unwinds too.
			tr.CloseIdleConnections()
			settleGoroutines(t, baseline)

			start := time.Now()
			if err := srv.Shutdown(shutCtx); err != nil {
				t.Fatalf("second Shutdown: %v", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("second Shutdown took %s", d)
			}
		})
	}
}
