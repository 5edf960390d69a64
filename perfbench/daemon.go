package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/server"
)

// daemon is one in-process shelleyd: server.New plus Start on a
// loopback port, configured as `shelleyd -quiet` with the stated
// exceptions (see README.md). With tracing on it is also served on a
// second listener through the benchmark's own handler span recorder;
// the program itself runs no tracer either way.
type daemon struct {
	srv    *server.Server
	url    string // Start's listener
	traced string // span-recording listener, "" when tracing is off
	tsrv   *http.Server
	http   *http.Client
	// probe carries /metrics scrapes on a connection of its own, so a
	// scrape never waits for a load connection to free up (which would
	// sample the pool gauges only between requests).
	probe *http.Client
}

// maxModules is shelleyd's default resident-module bound.
const maxModules = 256

// conns is the load generator's connection count: the closed loops use
// at most this many concurrent requests, one per machine core of the
// box the workloads were sized on.
const conns = 2

func bootDaemon(watch bool, spans *spanLog) (*daemon, error) {
	cfg := server.Config{
		CheckWorkers:      1,
		MaxModules:        maxModules,
		Telemetry:         true,
		TelemetryInterval: time.Second,
		Watch:             watch,
	}
	srv := server.New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{srv: srv, url: "http://" + addr, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}, probe: &http.Client{Transport: &http.Transport{}}}
	if spans != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, fmt.Errorf("starting traced listener: %w", err)
		}
		d.tsrv = &http.Server{Handler: spans.wrap(srv.Handler())}
		go func() { _ = d.tsrv.Serve(ln) }()
		d.traced = "http://" + ln.Addr().String()
	}
	ctx := context.Background()
	if err := client.New(d.url).WaitReady(ctx, 5*time.Second); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.tsrv != nil {
		_ = d.tsrv.Shutdown(ctx)
	}
	_ = d.srv.Shutdown(ctx)
	d.http.CloseIdleConnections()
	d.probe.CloseIdleConnections()
}

// target is where a pass sends its requests.
func (d *daemon) target(spans *spanLog) string {
	if spans != nil {
		return d.traced
	}
	return d.url
}

// post sends one JSON body and reads the whole response into buf. The
// span header links the daemon-side span to the client-side one when
// the traced listener is used.
func (d *daemon) post(base, path string, body []byte, span uint64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// metrics fetches the GET /metrics exposition.
func (d *daemon) metrics() (string, error) {
	resp, err := d.probe.Get(d.url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return string(b), err
}

// scrape is a snapshot of the /metrics values the layer metrics use.
type scrape map[string]float64

var scrapeNames = []string{
	"shelleyd_check_body_cache_hits_total",
	"shelleyd_module_cache_hits_total",
	"shelleyd_module_cache_misses_total",
	"shelleyd_module_cache_evictions_total",
	"shelleyd_queue_depth",
	"shelleyd_workers_busy",
}

func (d *daemon) scrape() (scrape, error) {
	text, err := d.metrics()
	if err != nil {
		return nil, err
	}
	s := scrape{}
	for _, n := range scrapeNames {
		v, _ := client.ParseMetric(text, n)
		s[n] = v
	}
	for _, stage := range stageNames {
		for _, kind := range []string{"hits", "misses"} {
			key := fmt.Sprintf(`shelleyd_pipeline_stage_total{stage="%s",kind="%s"}`, stage, kind)
			v, ok := client.ParseMetric(text, key)
			if !ok {
				return nil, errors.New("/metrics lacks " + key)
			}
			s[stage+"."+kind] = v
		}
	}
	return s, nil
}

// gaugeSampler samples the pool gauges once a second, as an operator's
// scraper would, until stop is called.
type gaugeSampler struct {
	stopc      chan struct{}
	wg         sync.WaitGroup
	queue, hot []float64
}

func (d *daemon) sampleGauges() *gaugeSampler {
	g := &gaugeSampler{stopc: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-g.stopc:
				return
			case <-t.C:
				if s, err := d.scrape(); err == nil {
					g.queue = append(g.queue, s["shelleyd_queue_depth"])
					g.hot = append(g.hot, s["shelleyd_workers_busy"])
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) stop() (queueMean, busyMean float64) {
	close(g.stopc)
	g.wg.Wait()
	return mean(g.queue), mean(g.hot)
}
