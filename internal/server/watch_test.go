package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
)

// watchSource builds a two-class module whose composite body is
// parameterized, so tests can produce a one-method edit.
func watchSource(callOp string) string {
	return fmt.Sprintf(`@sys
class Dev:
    @op_initial_final
    def op0(self):
        return ["op0", "op1"]

    @op_initial_final
    def op1(self):
        return []

@sys(["d"])
class Ctl:
    def __init__(self):
        self.d = Dev()

    @op_initial_final
    def go(self):
        self.d.%s()
        return []
`, callOp)
}

// TestWatchDisabledAnswers404 pins the off-by-default contract.
func TestWatchDisabledAnswers404(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 2})
	ctx := context.Background()
	_, err := cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: watchSource("op0")})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("push on watchless daemon: %v, want 404", err)
	}
	if _, err := cl.Watch(ctx, "s", 0); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("poll on watchless daemon: %v, want 404", err)
	}
}

// TestWatchEditLoop is the end-to-end edit loop: push, long-poll, edit,
// and verify the incremental accounting — the second round re-verifies
// only the edited class and reuses the other's report.
func TestWatchEditLoop(t *testing.T) {
	t.Parallel()
	srv, cl := startServer(t, Config{Workers: 2, Watch: true})
	ctx := context.Background()

	first, err := cl.WatchPush(ctx, client.WatchRequest{Session: "edit", Source: watchSource("op0")})
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || !first.Diff.Initial || first.CheckedClasses != 2 || first.ReusedReports != 0 {
		t.Fatalf("first round = seq %d initial %v checked %d reused %d",
			first.Seq, first.Diff.Initial, first.CheckedClasses, first.ReusedReports)
	}
	if !first.OK || len(first.Reports) != 2 {
		t.Fatalf("first round not clean: ok=%v reports=%d", first.OK, len(first.Reports))
	}

	// Park a long-poller past the first round, then push a one-method
	// edit of Ctl (the call target moves; Dev is untouched).
	type pollResult struct {
		upd *client.WatchUpdate
		err error
	}
	pollDone := make(chan pollResult, 1)
	go func() {
		upd, err := cl.Watch(ctx, "edit", first.Seq)
		pollDone <- pollResult{upd, err}
	}()
	// The poller must be parked (not answered) before the push, or the
	// test only exercises the fast path.
	waitMetric(t, scrapeClient(srv.Addr()), "shelleyd_watch_pollers", 1)

	second, err := cl.WatchPush(ctx, client.WatchRequest{Session: "edit", Source: watchSource("op1")})
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq != 2 {
		t.Fatalf("second round seq = %d, want 2", second.Seq)
	}
	if got := fmt.Sprint(second.Diff.Changed); got != "[Ctl]" {
		t.Fatalf("second round changed = %v, want [Ctl]", second.Diff.Changed)
	}
	if len(second.Diff.ProtocolChanged) != 0 {
		t.Fatalf("body-only edit reported protocol change: %v", second.Diff.ProtocolChanged)
	}
	if second.CheckedClasses != 1 || second.ReusedReports != 1 {
		t.Fatalf("second round checked %d reused %d, want 1/1", second.CheckedClasses, second.ReusedReports)
	}
	if got := second.Diff.ChangedMethods["Ctl"]; fmt.Sprint(got) != "[go]" {
		t.Fatalf("changed methods = %v, want [go]", second.Diff.ChangedMethods)
	}

	res := <-pollDone
	if res.err != nil {
		t.Fatalf("long-poll: %v", res.err)
	}
	if res.upd == nil || res.upd.Seq != 2 {
		t.Fatalf("long-poll delivered %+v, want seq 2", res.upd)
	}
	if res.upd.Fingerprint != second.Fingerprint {
		t.Fatal("long-poll body differs from push response")
	}

	// The push response is byte-equivalent to a cold /v1/check of the
	// same source (report-wise).
	cold, err := cl.Check(ctx, client.CheckRequest{Source: watchSource("op1")})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Reports {
		if cold.Reports[i].String() != second.Reports[i].String() {
			t.Fatalf("report %d: incremental differs from cold check", i)
		}
	}

	// Incremental counters reached the exposition.
	if v, ok, err := cl.MetricValue(ctx, "shelleyd_incremental_reports_reused_total"); err != nil || !ok || v != 1 {
		t.Fatalf("incremental reuse counter = %v ok=%v err=%v, want 1", v, ok, err)
	}
	if v, ok, err := cl.MetricValue(ctx, "shelleyd_watch_updates_total"); err != nil || !ok || v != 2 {
		t.Fatalf("watch updates counter = %v ok=%v err=%v, want 2", v, ok, err)
	}
	if v, ok, err := cl.MetricValue(ctx, "shelleyd_watch_sessions"); err != nil || !ok || v != 1 {
		t.Fatalf("watch sessions gauge = %v ok=%v err=%v, want 1", v, ok, err)
	}
}

// TestWatchPollWindowAndErrors pins the poll edge cases: an unknown
// session 404s, a lapsed window answers 204 (nil update), and a bad
// source leaves the previous generation resident.
func TestWatchPollWindowAndErrors(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 2, Watch: true, WatchPollTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	var apiErr *client.APIError
	if _, err := cl.Watch(ctx, "ghost", 0); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("poll of unknown session: %v, want 404", err)
	}

	if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: watchSource("op0")}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	upd, err := cl.Watch(ctx, "s", 1)
	if err != nil || upd != nil {
		t.Fatalf("lapsed poll = %+v, %v; want nil, nil", upd, err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("poll answered before the window lapsed")
	}

	// A broken push is a 422 and does not advance the session.
	_, err = cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: "class {"})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken push: %v, want 422", err)
	}
	if upd, err := cl.Watch(ctx, "s", 0); err != nil || upd == nil || upd.Seq != 1 {
		t.Fatalf("session after broken push = %+v, %v; want seq 1", upd, err)
	}
}

// TestWatchEviction pins the session bound: creating past
// MaxWatchSessions evicts the least-recently-used session and wakes its
// pollers with 404.
func TestWatchEviction(t *testing.T) {
	t.Parallel()
	srv, cl := startServer(t, Config{Workers: 2, Watch: true, MaxWatchSessions: 2})
	ctx := context.Background()

	for _, name := range []string{"a", "b"} {
		if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: name, Source: watchSource("op0")}); err != nil {
			t.Fatal(err)
		}
	}
	pollDone := make(chan error, 1)
	go func() {
		_, err := cl.Watch(ctx, "a", 1)
		pollDone <- err
	}()
	// The poller's lookup touched "a"; wait for it to park so that
	// touch lands before the test's own.
	waitMetric(t, scrapeClient(srv.Addr()), "shelleyd_watch_pollers", 1)
	// Touch "a" is NOT done here: "a" is oldest only if "b" was used
	// later, so refresh "b" then create "c".
	if _, err := cl.Watch(ctx, "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: "c", Source: watchSource("op0")}); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	select {
	case err := <-pollDone:
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted session's poller got %v, want 404", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evicted session's poller never woke")
	}
	if v, ok, err := cl.MetricValue(ctx, "shelleyd_watch_sessions_evicted_total"); err != nil || !ok || v != 1 {
		t.Fatalf("eviction counter = %v ok=%v err=%v, want 1", v, ok, err)
	}
}

// TestWatchDrainReleasesPollers pins the shutdown interaction: a parked
// long-poller answers 503 as soon as the drain begins instead of
// stalling it for a poll window.
func TestWatchDrainReleasesPollers(t *testing.T) {
	t.Parallel()
	srv, cl := startServer(t, Config{Workers: 2, Watch: true, WatchPollTimeout: time.Minute})
	ctx := context.Background()
	if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: watchSource("op0")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Watch(ctx, "s", 1)
		}(i)
	}
	// A poller inside its handler answers 503 once the drain begins; one
	// still connecting would instead meet a closed listener.
	waitMetric(t, scrapeClient(srv.Addr()), "shelleyd_inflight_requests", 3)

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain stalled %s on parked pollers", elapsed)
	}
	wg.Wait()
	for i, err := range errs {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("poller %d woke with %v, want 503 draining", i, err)
		}
		if !strings.Contains(apiErr.Message, "draining") {
			t.Fatalf("poller %d message %q lacks draining", i, apiErr.Message)
		}
	}
}
