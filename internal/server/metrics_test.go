package server

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// goldenMetrics builds a registry with a deterministic, hand-placed set
// of observations covering every labeled family shape: multiple
// endpoints, multiple status codes, latencies spanning several coarse
// buckets plus the +Inf overflow, scalar counters, gauges, pipeline
// stages, and the mine families.
func goldenMetrics() (*metrics, pipeline.Stats, *mineSnapshot) {
	m := newMetrics()

	m.observe("check", 200, 50*time.Microsecond)
	m.observe("check", 200, 50*time.Microsecond)
	m.observe("check", 200, 400*time.Microsecond)
	m.observe("check", 200, 5*time.Millisecond)
	m.observe("check", 422, 80*time.Microsecond)
	m.observe("check", 500, 2*time.Second)
	m.observe("check", 504, 15*time.Second) // overflow bucket
	m.observe("trace", 200, 30*time.Millisecond)
	m.observe("trace", 400, 200*time.Millisecond)

	m.coalesced.Store(3)
	m.moduleHits.Store(7)
	m.moduleMisses.Store(2)
	m.bodyCacheHits.Store(4)
	m.moduleEvictions.Store(1)
	m.timeoutQueue.Store(1)
	m.timeoutWait.Store(2)
	m.saturated.Store(5)
	m.panics.Store(1)
	m.budgetExceeded.Store(2)
	m.batchItems.Store(9)
	m.batchItemErrors.Store(1)
	m.batchRejected.Store(1)
	m.batchCanceled.Store(1)
	m.jobStreamDetached.Store(1)
	m.batchBackpressure.Store(2)
	m.jobsSubmitted.Store(3)
	m.writeErrors.Store(1)
	m.exemplars.Store(6)
	m.batchInflightItems.Store(4)
	m.jobsActive.Store(1)
	m.queueDepth.Store(2)
	m.workersBusy.Store(3)
	m.inflight.Store(1)
	m.ingestRejected.Store(2)
	m.ingestInflightEvents.Store(8)

	ps := (*pipeline.Cache)(nil).Stats() // all stage names, zero counts
	ps.Stages[0].Hits = 11
	ps.Stages[0].Misses = 2
	ps.Stages[1].PersistHits = 5

	ms := &mineSnapshot{
		counters: mine.Counters{
			IngestedEvents: 120,
			IngestedTraces: 40,
			ShedTraces:     3,
			Rounds:         6,
			BudgetTripped:  1,
			DriftFlips:     2,
		},
		reports: []mine.Report{
			{ClassFP: "a", Verdict: mine.VerdictConformant},
			{ClassFP: "b", Verdict: mine.VerdictDrift},
			{ClassFP: "c", Verdict: mine.VerdictPending},
		},
	}
	return m, ps, ms
}

// TestMetricsExpositionGolden pins the exact /metrics bytes for a fixed
// registry state. Any change to family names, HELP text, label order,
// or value formatting shows up as a diff here — renames (like the
// shelley_→shelleyd_ move) must be deliberate. Regenerate with:
//
//	go test ./internal/server -run TestMetricsExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	m, ps, ms := goldenMetrics()
	var b strings.Builder
	m.render(&b, ps, nil, ms)

	path := filepath.Join("..", "..", "testdata", "golden", "metrics.txt")
	got := []byte(b.String())
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("exposition drifted from golden file (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestMetricsPromlint is a promlint-style conformance pass over the
// full family enumeration: naming, HELP/TYPE presence, counter suffix
// conventions, label-order stability, and no duplicate families. It
// runs against the same fixed registry the golden test uses, so every
// family (including mine and pipeline) is exercised.
func TestMetricsPromlint(t *testing.T) {
	m, ps, ms := goldenMetrics()
	fams := m.families(ps, nil, ms)
	if len(fams) == 0 {
		t.Fatal("families() returned nothing")
	}

	seen := make(map[string]bool)
	for _, f := range fams {
		if seen[f.name] {
			t.Errorf("duplicate family %s", f.name)
		}
		seen[f.name] = true

		if !metricNameRe.MatchString(f.name) {
			t.Errorf("family %s: invalid metric name", f.name)
		}
		if !strings.HasPrefix(f.name, "shelleyd_") {
			// The un-prefixed shelley_* aliases were removed after their
			// one-release deprecation window; every family carries the
			// daemon namespace now.
			t.Errorf("family %s: missing shelleyd_ namespace prefix", f.name)
		}
		if f.help == "" {
			t.Errorf("family %s: empty HELP", f.name)
		}
		switch f.kind {
		case "counter":
			if !strings.HasSuffix(f.name, "_total") {
				t.Errorf("counter %s: name must end _total", f.name)
			}
		case "gauge":
			if strings.HasSuffix(f.name, "_total") {
				t.Errorf("gauge %s: _total suffix is reserved for counters", f.name)
			}
		case "histogram":
			// The base name carries no suffix; its samples add
			// _bucket{le=...}, _sum and _count.
			if strings.HasSuffix(f.name, "_total") || strings.HasSuffix(f.name, "_bucket") {
				t.Errorf("histogram %s: base name must not carry a sample suffix", f.name)
			}
		default:
			t.Errorf("family %s: unknown kind %q", f.name, f.kind)
		}

		// Every sample of a family (of a histogram: every sample with the
		// same suffix) must carry the same label keys in the same order —
		// that is what makes scrapes byte-stable.
		keysBySuffix := make(map[string][]string)
		for _, s := range f.samples {
			switch {
			case f.kind == "histogram" && s.suffix != "_bucket" && s.suffix != "_sum" && s.suffix != "_count":
				t.Errorf("histogram %s: sample suffix %q", f.name, s.suffix)
			case f.kind != "histogram" && s.suffix != "":
				t.Errorf("%s %s: sample suffix %q outside a histogram", f.kind, f.name, s.suffix)
			}
			var sk []string
			for _, l := range s.labels {
				if !metricNameRe.MatchString(l.k) {
					t.Errorf("family %s: invalid label name %q", f.name, l.k)
				}
				if strings.ContainsAny(l.v, "\"\n\\") {
					t.Errorf("family %s: label %s=%q needs escaping the renderer does not do", f.name, l.k, l.v)
				}
				sk = append(sk, l.k)
			}
			keys, seen := keysBySuffix[s.suffix]
			if !seen {
				keysBySuffix[s.suffix] = sk
				continue
			}
			if strings.Join(sk, ",") != strings.Join(keys, ",") {
				t.Errorf("family %s: label keys %v differ from first sample's %v", f.name, sk, keys)
			}
		}
	}

	// The rendered text must introduce every family with HELP then TYPE
	// before its first sample, and never interleave families.
	var b strings.Builder
	m.render(&b, ps, nil, ms)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	introduced := make(map[string]bool)
	current := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if introduced[name] {
				t.Errorf("line %d: family %s introduced twice", i+1, name)
			}
			introduced[name] = true
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("line %d: HELP %s not followed by its TYPE line", i+1, name)
			}
			current = name
			i++ // skip the TYPE line
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		if name != current && name != current+"_bucket" && name != current+"_sum" && name != current+"_count" {
			t.Errorf("line %d: sample %s outside its family block (current %s)", i+1, name, current)
		}
		if !introduced[current] {
			t.Errorf("line %d: sample for %s before its HELP/TYPE", i+1, name)
		}
	}
}

// checkExposition parses a text exposition with the standard library
// alone and checks what a Prometheus server relies on: every family has
// HELP and TYPE lines before its samples, every sample belongs to a
// declared family, and each histogram series has non-decreasing buckets
// in ascending le order ending at +Inf, which equals its _count, plus a
// _sum.
func checkExposition(text string) error {
	type series struct {
		les      []float64
		counts   []float64
		sum, cnt float64
		hasSum   bool
		hasCount bool
	}
	help := make(map[string]bool)
	kind := make(map[string]string)
	hists := make(map[string]*series) // family + labels without le
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, _ := strings.Cut(rest, " ")
			if !help[name] {
				return fmt.Errorf("line %d: TYPE %s before its HELP", n, name)
			}
			kind[name] = k
			continue
		}
		nameAndLabels, raw, ok := strings.Cut(line, " ")
		if !ok {
			return fmt.Errorf("line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return fmt.Errorf("line %d: value %q: %v", n, raw, err)
		}
		name, labels, _ := strings.Cut(nameAndLabels, "{")
		labels = strings.TrimSuffix(labels, "}")
		if _, ok := kind[name]; ok {
			if strings.Contains(labels, "le=") {
				return fmt.Errorf("line %d: le label outside a histogram bucket: %s", n, line)
			}
			continue
		}
		var base, suffix string
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, sfx); ok && kind[b] == "histogram" {
				base, suffix = b, sfx
			}
		}
		if base == "" {
			return fmt.Errorf("line %d: sample %s has no HELP/TYPE family", n, name)
		}
		var le string
		var rest []string
		for _, l := range strings.Split(labels, ",") {
			if val, ok := strings.CutPrefix(l, "le="); ok {
				le = strings.Trim(val, `"`)
			} else if l != "" {
				rest = append(rest, l)
			}
		}
		key := base + "{" + strings.Join(rest, ",") + "}"
		h := hists[key]
		if h == nil {
			h = &series{}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: le %q: %v", n, le, err)
				}
			}
			if k := len(h.les); k > 0 && (bound <= h.les[k-1] || v < h.counts[k-1]) {
				return fmt.Errorf("line %d: %s bucket le=%s=%v after le=%v=%v", n, key, le, v, h.les[k-1], h.counts[k-1])
			}
			h.les, h.counts = append(h.les, bound), append(h.counts, v)
		case "_sum":
			h.sum, h.hasSum = v, true
		case "_count":
			h.cnt, h.hasCount = v, true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, k := range kind {
		if k != "counter" && k != "gauge" && k != "histogram" {
			return fmt.Errorf("family %s: unknown type %q", name, k)
		}
	}
	for key, h := range hists {
		k := len(h.les)
		switch {
		case k == 0 || !math.IsInf(h.les[k-1], 1):
			return fmt.Errorf("%s: no +Inf bucket", key)
		case !h.hasSum || !h.hasCount:
			return fmt.Errorf("%s: missing _sum or _count", key)
		case h.counts[k-1] != h.cnt:
			return fmt.Errorf("%s: +Inf bucket %v != _count %v", key, h.counts[k-1], h.cnt)
		}
	}
	return nil
}

// TestMetricsExpositionParses runs the stdlib exposition checker over
// broken expositions it must refuse, the fixed golden registry, and a
// live daemon's /metrics after real traffic.
func TestMetricsExpositionParses(t *testing.T) {
	const head = "# HELP h_seconds H.\n# TYPE h_seconds histogram\n"
	for name, bad := range map[string]string{
		"no TYPE":           "# HELP c_total C.\nc_total 1\n",
		"le on a counter":   "# HELP c_total C.\n# TYPE c_total counter\nc_total{le=\"1\"} 1\n",
		"falling bucket":    head + "h_seconds_bucket{le=\"1\"} 2\nh_seconds_bucket{le=\"+Inf\"} 1\nh_seconds_sum 1\nh_seconds_count 1\n",
		"+Inf is not count": head + "h_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_sum 1\nh_seconds_count 3\n",
		"no _sum":           head + "h_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_count 2\n",
	} {
		if checkExposition(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	m, ps, ms := goldenMetrics()
	var b strings.Builder
	m.render(&b, ps, nil, ms)
	if err := checkExposition(b.String()); err != nil {
		t.Errorf("golden registry: %v", err)
	}

	_, cl := startServer(t, Config{Workers: 2})
	ctx := context.Background()
	src := readTestdata(t, "valve.py")
	for i := 0; i < 3; i++ {
		if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Check(ctx, client.CheckRequest{}); err == nil {
		t.Fatal("empty check succeeded")
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExposition(text); err != nil {
		t.Errorf("live /metrics: %v", err)
	}
	if v, ok := client.ParseMetric(text, `shelleyd_request_duration_count{endpoint="check"}`); !ok || v != 4 {
		t.Errorf("check _count = %v (present=%v), want 4", v, ok)
	}
}

// TestMetricsSampleMatchesFamilies pins the families→telemetry.Sample
// bridge: every scalar family lands in Counters/Gauges under its
// rendered key, and the per-endpoint fine histograms carry the same
// totals the request family shows.
func TestMetricsSampleMatchesFamilies(t *testing.T) {
	m, ps, ms := goldenMetrics()
	s := m.sample(ps, nil, ms)

	if got := s.Counters["shelleyd_panics_total"]; got != 1 {
		t.Errorf("panics counter = %v, want 1", got)
	}
	if got := s.Counters[`shelleyd_pipeline_stage_total{stage="`+ps.Stages[0].Stage+`",kind="hits"}`]; got != 11 {
		t.Errorf("labeled stage counter = %v, want 11", got)
	}
	if got := s.Gauges["shelleyd_queue_depth"]; got != 2 {
		t.Errorf("queue depth gauge = %v, want 2", got)
	}
	h, ok := s.Hists["check"]
	if !ok {
		t.Fatal("no check histogram in sample")
	}
	if h.Total != 7 || h.Errors != 2 {
		t.Errorf("check hist total/errors = %d/%d, want 7/2", h.Total, h.Errors)
	}
	var sum uint64
	for _, n := range h.Buckets {
		sum += n
	}
	if sum != h.Total {
		t.Errorf("bucket sum %d != total %d", sum, h.Total)
	}
	if s.Hists["trace"].Total != 2 {
		t.Errorf("trace hist total = %d, want 2", s.Hists["trace"].Total)
	}
	// The exposition reads its cumulative buckets off the same fine
	// histogram: five check observes are at most 100ms, the 2s and 15s
	// ones land above, and +Inf counts all seven.
	var b strings.Builder
	m.render(&b, ps, nil, ms)
	for _, line := range []string{
		`shelleyd_request_duration_bucket{endpoint="check",le="0.1"} 5` + "\n",
		`shelleyd_request_duration_bucket{endpoint="check",le="+Inf"} 7` + "\n",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// BenchmarkMetricsObserveParallel measures the per-request hot path
// under contention. The pre-refactor mutex registry ran ≈37 ns/op here;
// the atomic registry must not regress (it measures ≈4 ns/op).
func BenchmarkMetricsObserveParallel(b *testing.B) {
	m := newMetrics()
	ep := m.endpoint("check")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ep.observe(200, 250*time.Microsecond)
		}
	})
}

// BenchmarkMetricsObserveByName is the convenience path: one RLock-ed
// map lookup plus the atomic observe — what a handler without a
// pre-resolved pointer would pay.
func BenchmarkMetricsObserveByName(b *testing.B) {
	m := newMetrics()
	m.endpoint("check")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.observe("check", 200, 250*time.Microsecond)
		}
	})
}
