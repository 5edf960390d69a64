package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/client"
)

// TestCheckAndBatchItemShareOnePath pins the single check path: for
// every refusal, /v1/check and a batch item carrying the same request
// answer the same status with the same error text.
func TestCheckAndBatchItemShareOnePath(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 2, BatchWindow: 1, Limits: tightLimits()})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()
	valve := readTestdata(t, "valve.py")
	cases := []struct {
		name string
		req  client.CheckRequest
		code int
	}{
		{"both fields empty", client.CheckRequest{}, 400},
		{"fingerprint mismatch", client.CheckRequest{Source: valve, Fingerprint: "sha256:feed"}, 400},
		{"not resident", client.CheckRequest{Fingerprint: client.Fingerprint("never posted")}, 404},
		{"unknown class", client.CheckRequest{Source: valve, Class: "Nope"}, 404},
		{"unloadable source", client.CheckRequest{Source: "@sys\nclass X:\n  def"}, 422},
		{"budget exceeded", client.CheckRequest{Source: readTestdata(t, "pathological/detblow.py")}, 422},
	}
	for _, tc := range cases {
		_, err := cl.Check(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Errorf("%s: /v1/check err = %v, want an API error", tc.name, err)
			continue
		}
		stream, err := bcl.CheckBatch(ctx, client.BatchRequest{Items: []client.BatchItem{{
			Source: tc.req.Source, Fingerprint: tc.req.Fingerprint, Class: tc.req.Class, Precise: tc.req.Precise,
		}}})
		if err != nil {
			t.Fatalf("%s: batch: %v", tc.name, err)
		}
		recs, err := stream.Collect()
		if err != nil || len(recs) != 1 {
			t.Fatalf("%s: batch records %v, %v", tc.name, recs, err)
		}
		if apiErr.StatusCode != tc.code || recs[0].Status != tc.code {
			t.Errorf("%s: /v1/check %d, batch item %d, want %d", tc.name, apiErr.StatusCode, recs[0].Status, tc.code)
		}
		if apiErr.Message != recs[0].Error || apiErr.Message == "" {
			t.Errorf("%s: /v1/check says %q, batch item says %q", tc.name, apiErr.Message, recs[0].Error)
		}
	}
}

// TestPipelineStageCounterIsMonotonic pins shelleyd_pipeline_stage_total
// as a counter: evicting a module or a watch session folds its counts
// into a retired total instead of dropping them, and watch sessions
// count too.
func TestPipelineStageCounterIsMonotonic(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2, MaxModules: 1, Watch: true, MaxWatchSessions: 1})
	ctx := context.Background()
	stageCounts := func() map[string]float64 {
		t.Helper()
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "shelleyd_pipeline_stage_total{") {
				continue
			}
			series, _, _ := strings.Cut(line, " ")
			v, _ := client.ParseMetric(text, series)
			out[series] = v
		}
		if len(out) == 0 {
			t.Fatal("no shelleyd_pipeline_stage_total samples")
		}
		return out
	}
	prev := stageCounts()
	steps := []struct {
		name string
		run  func() error
	}{
		{"3-class module", func() error {
			_, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(2, "Mono")})
			return err
		}},
		{"1-class module evicts it", func() error {
			_, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(0, "Solo")})
			return err
		}},
		{"watch session", func() error {
			_, err := cl.WatchPush(ctx, client.WatchRequest{Session: "a", Source: watchSource("op0")})
			return err
		}},
		{"second session evicts it", func() error {
			_, err := cl.WatchPush(ctx, client.WatchRequest{Session: "b", Source: syntheticSource(0, "W")})
			return err
		}},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		cur := stageCounts()
		var grew bool
		for series, v := range cur {
			if v < prev[series] {
				t.Errorf("after %s: %s fell from %v to %v", st.name, series, prev[series], v)
			}
			grew = grew || v > prev[series]
		}
		if !grew {
			t.Errorf("after %s: no stage counter moved", st.name)
		}
		prev = cur
	}
}

// TestCheckRefusalBytes pins a /v1/check refusal's bytes: the same
// newline-terminated JSON line writeError sends for every other
// handler's refusals.
func TestCheckRefusalBytes(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/check", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"error\":\"item needs source or fingerprint\"}\n"; resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("got %d %q, want 400 %q", resp.StatusCode, body, want)
	}
}
