// Command perfbench is the repository's benchmark: it boots shelleyd in
// process, drives one of three workloads through it with a closed-loop
// load generator, checks every answer against verdicts the checker did
// not produce, and prints the metrics declared in BENCHMARK.json as
// the last line of its output.
//
//	bash perfbench/run.sh --workload warm-recheck --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root. --trace 1 prints the per-layer
// metrics instead of the end-to-end ones. --workload all runs every
// workload untraced and prints one table. See perfbench/README.md.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"warm-recheck", "cold-verify", "edit-loop"}

// setupRepeats is how many times a run boots and primes a daemon; the
// reported setup_s is the median.
const setupRepeats = 5

// warmupSeconds of load precede the measured phase of warm-recheck and
// cold-verify runs.
const warmupSeconds = 3

// heldOutSeed derives the second seed every traced run also checks: its
// counts and verdicts are recorded, and it was never used while the
// benchmark was tuned.
func heldOutSeed(seed uint64) uint64 { return seed ^ 0x5eed0ff5c0ffee }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root (testdata is read from here)
	out      string // where spans and count records are written
	log      io.Writer
}

// result is what one run prints as its last line.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	problems  []string
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{log: stderr}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for span and count records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mach := machine()
	fmt.Fprintf(stdout, "machine: %s\n", mustJSON(mach))
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	res, err := run(cfg, mach)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	fmt.Fprintln(stdout, string(resultJSON(res, cfg.trace)))
	if !res.correct {
		return 1
	}
	return 0
}

// runAll prints every end-to-end metric of every workload, untraced.
func runAll(cfg config, stdout, stderr io.Writer) int {
	tw := bufio.NewWriter(stdout)
	fmt.Fprintf(tw, "%-14s", "workload")
	cols := append(metricNames(endToEnd), "failed_ratio")
	for _, c := range cols {
		fmt.Fprintf(tw, " %16s", c)
	}
	fmt.Fprintln(tw)
	code := 0
	for _, w := range workloadNames {
		c := cfg
		c.workload, c.trace = w, false
		res, err := run(c, machine())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", w+":", err)
			return 1
		}
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: FAIL:", w+":", p)
			code = 1
		}
		fmt.Fprintf(tw, "%-14s", w)
		for _, c := range cols {
			fmt.Fprintf(tw, " %16.6g", res.metrics[c])
		}
		fmt.Fprintln(tw)
	}
	units := make([]string, len(cols))
	for i, c := range cols {
		units[i] = c + " [" + unitOf(c) + "]"
	}
	fmt.Fprintln(tw, "units:", strings.Join(units, ", "))
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}

func newWorkload(cfg config, paper []paperModule) (workload, error) {
	switch cfg.workload {
	case "warm-recheck":
		return newWarm(cfg.seed, paper), nil
	case "cold-verify":
		return &coldWorkload{seed: cfg.seed, paper: paper, out: cfg.out}, nil
	case "edit-loop":
		return &editWorkload{seed: cfg.seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// passStats is what the benchmark observes around a pass from outside
// the daemon: /metrics deltas, sampled pool gauges, process counters.
type passStats struct {
	delta             scrape
	queueSum, busySum float64
	gaugeSamples      int
	alloc, cpu, pause float64 // bytes, seconds, seconds
	heaps             []float64
}

// measure runs passes into p until seconds are spent (at least one).
// A workload whose daemon carries state from an earlier pass gets a
// fresh, timed boot first; those boots are setup samples too.
func measure(w workload, p *phase, seconds float64, offset uint64, spans *spanLog, setups *[]float64) (*passStats, error) {
	st := &passStats{delta: scrape{}}
	w.begin(offset)
	for n := 0; n == 0 || p.elapsed.Seconds() < seconds; n++ {
		if w.used() {
			w.close()
			start := time.Now()
			if err := w.boot(spans); err != nil {
				return nil, err
			}
			*setups = append(*setups, time.Since(start).Seconds())
		}
		d := w.daemon()
		s0, err := d.scrape()
		if err != nil {
			return nil, err
		}
		g := d.sampleGauges()
		pr0 := readProcess()
		err = w.pass(p, seconds-p.elapsed.Seconds(), offset, spans)
		pr1 := readProcess()
		g.stop()
		if err != nil {
			return nil, err
		}
		s1, err := d.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range s1 {
			st.delta[k] += v - s0[k]
		}
		for i := range g.queue {
			st.queueSum += g.queue[i]
			st.busySum += g.hot[i]
		}
		st.gaugeSamples += len(g.queue)
		st.alloc += pr1.alloc - pr0.alloc
		st.cpu += pr1.cpu - pr0.cpu
		st.pause += pr1.pause - pr0.pause
		st.heaps = append(st.heaps, liveHeapMiB())
	}
	return st, nil
}

func run(cfg config, mach map[string]any) (*result, error) {
	paper, err := loadPaper(cfg.root)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg, paper)
	if err != nil {
		return nil, err
	}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.boot(spans); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { w.close() }()

	res := &result{correct: true, metrics: map[string]float64{}}
	measured := cfg.seconds
	if cfg.trace {
		measured = cfg.seconds / 2
	}
	if _, fixed := w.(*editWorkload); !fixed {
		// Load the daemon before timing: its resident set and the
		// process heap reach their steady size in the first seconds.
		// (An edit-loop pass is fixed work on a fresh daemon instead.)
		if err := w.pass(newPhase(), warmupSeconds, warmupBase, nil); err != nil {
			return nil, err
		}
	}
	p := newPhase()
	st, err := measure(w, p, measured, 0, nil, &setups)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = p.attempts.Load(), p.failures.Load()
	for _, s := range w.verify() {
		res.problem("%s", s)
	}
	if p.wrong.Load() > 0 {
		res.problem("%d wrong answers, first: %s", p.wrong.Load(), p.errText())
	} else if res.failed > 0 {
		fmt.Fprintf(cfg.log, "perfbench: %d failed ops, first: %s\n", res.failed, p.errText())
	}
	if res.attempted-res.failed < 1 {
		return nil, errors.New("no op succeeded")
	}
	if !cfg.trace {
		sum := p.summary()
		res.metrics["throughput_ops_s"] = sum.throughput
		res.metrics["latency_p50_ms"] = sum.p50 * 1e3
		res.metrics["latency_p99_ms"] = sum.p99 * 1e3
		res.metrics["heap_live_mib"] = median(st.heaps)
		res.metrics["setup_s"] = median(setups)
		res.metrics["failed_ratio"] = float64(res.failed) / float64(res.attempted)
		fmt.Fprintf(cfg.log, "perfbench: %s seed %d: %d ops (%d latency samples), %d setups\n",
			cfg.workload, cfg.seed, res.attempted, p.samples, len(setups))
		return res, nil
	}
	if err := traced(cfg, w, p, st, spans, res, mach); err != nil {
		return nil, err
	}
	return res, nil
}

// traced finishes a traced run: a traced pass of the same length as
// the untraced one, then the layer measurements on the workload's
// sample, the ledger, and the count checks.
func traced(cfg config, w workload, untraced *phase, st *passStats, spans *spanLog, res *result, mach map[string]any) error {
	var setups []float64
	tp := newPhase()
	if _, err := measure(w, tp, cfg.seconds/2, traceBase, spans, &setups); err != nil {
		return err
	}
	res.attempted += tp.attempts.Load()
	res.failed += tp.failures.Load()
	if tp.wrong.Load() > 0 {
		res.problem("%d wrong answers in the traced pass, first: %s", tp.wrong.Load(), tp.errText())
	}
	for _, s := range w.verify() {
		res.problem("%s", s)
	}
	m := res.metrics
	ops := float64(untraced.attempts.Load())
	m["failed_ratio"] = float64(res.failed) / float64(res.attempted)
	m["trace_overhead_ratio"] = tp.meanLatency() / untraced.meanLatency()
	m["process.alloc_kib_per_op"] = st.alloc / 1024 / ops
	m["process.cpu_ms_per_op"] = st.cpu * 1e3 / ops
	m["process.gc_pause_ms"] = st.pause * 1e3
	m["server.body_hit_ratio"] = st.delta["shelleyd_check_body_cache_hits_total"] / ops
	m["server.module_hit_ratio"] = hitRatio(st.delta["shelleyd_module_cache_hits_total"], st.delta["shelleyd_module_cache_misses_total"])
	m["server.module_evictions"] = st.delta["shelleyd_module_cache_evictions_total"]
	if st.gaugeSamples > 0 {
		m["server.queue_depth_mean"] = st.queueSum / float64(st.gaugeSamples)
		m["server.workers_busy_mean"] = st.busySum / float64(st.gaugeSamples)
	} else {
		m["server.queue_depth_mean"], m["server.workers_busy_mean"] = 0, 0
	}

	s, err := w.sample(spans)
	if err != nil {
		return err
	}
	clientT := spans.clientTimes()
	ids := s.opIDs
	if ids == nil { // every traced op
		for id := range clientT {
			ids = append(ids, id)
		}
	}
	var e2e, wire, handler float64
	n := 0
	for _, id := range ids {
		c, ok1 := clientT[id]
		h, ok2 := spans.handlerTime(id)
		if ok1 && ok2 {
			e2e += c.Seconds() * 1e3
			handler += h.Seconds() * 1e3
			wire += (c - h).Seconds() * 1e3
			n++
		}
	}
	if n == 0 {
		return errors.New("traced pass recorded no complete span pair")
	}
	e2e, wire, handler = e2e/float64(n), wire/float64(n), handler/float64(n)
	m["client.wire_ms"] = wire
	m["client.loop_ms"] = untraced.clientLoop() * 1e3
	m["server.handler_ms"] = handler

	decode, fp, fpShare, encode, err := wireLayers(s)
	if err != nil {
		return err
	}
	m["server.decode_ms"], m["server.fingerprint_ms"], m["server.encode_ms"] = decode, fp, encode

	rep, err := stagedReplay(s.replay, s.want)
	if err != nil {
		return err
	}
	for k, v := range rep.ms {
		m[k] = v
	}
	m["automata.dfa_states"] = float64(rep.dfaStates)
	m["check.flat_states"] = float64(rep.flatStates)

	mir, err := sessionMirror(s.initial, s.mirror)
	if err != nil {
		return err
	}
	m["session.update_ms"], m["session.recheck_ms"] = mir.updateMs, mir.recheckMs
	m["session.checked_classes"], m["session.reused_reports"] = float64(mir.checked), float64(mir.reused)
	if err := pipelineMetrics(cfg.workload, s, st, mir, m); err != nil {
		return err
	}

	// The ledger: every layer the workload's ops pass through, against
	// the traced end-to-end time of the same ops.
	var sum float64
	switch cfg.workload {
	case "warm-recheck":
		sum = wire + decode + fp*fpShare
	case "cold-verify":
		sum = wire + decode + fp + encode
		for _, v := range rep.ms {
			sum += v
		}
	case "edit-loop":
		sum = wire + decode + fp + mir.updateMs + mir.recheckMs + encode
	}
	m["cold.unattributed_ratio"] = 1 - sum/e2e

	if err := checkCounts(cfg, w, rep, mir, res); err != nil {
		return err
	}
	return spans.write(filepath.Join(cfg.out, "spans-"+cfg.workload+".ndjson"), mach)
}

// pipelineMetrics reports the pipeline caches that served the
// workload's ops: for warm-recheck the daemon's own counters (no module
// is evicted there, so /metrics deltas are exact), for cold-verify a
// mirror of the daemon's cold path over the sample, for edit-loop the
// session mirror.
func pipelineMetrics(workload string, s *layerSample, st *passStats, mir *mirrorResult, m map[string]float64) error {
	var misses, entries float64
	switch workload {
	case "warm-recheck":
		for _, stage := range stageNames {
			h, mi := st.delta[stage+".hits"], st.delta[stage+".misses"]
			m["pipeline."+stage+".hit_ratio"] = hitRatio(h, mi)
			misses += mi
		}
		agg, err := moduleMirror(s.replay)
		if err != nil {
			return err
		}
		for _, x := range agg.Stages {
			entries += float64(x.Entries)
		}
	case "cold-verify":
		agg, err := moduleMirror(s.replay)
		if err != nil {
			return err
		}
		for i, x := range agg.Stages {
			m["pipeline."+stageNames[i]+".hit_ratio"] = hitRatio(float64(x.Hits), float64(x.Misses))
			misses += float64(x.Misses)
			entries += float64(x.Entries)
		}
		// The daemon keeps the last maxModules modules resident.
		entries = entries / float64(len(s.replay)) * maxModules
	default:
		for i, x := range mir.stats.Stages {
			m["pipeline."+stageNames[i]+".hit_ratio"] = hitRatio(float64(x.Hits), float64(x.Misses))
			misses += float64(x.Misses)
			entries += float64(x.Entries)
		}
	}
	m["pipeline.misses"] = misses
	m["pipeline.entries"] = entries
	return nil
}

// countRecord holds the counts that must repeat exactly for a seed.
type countRecord struct {
	DFAStates     int      `json:"dfa_states"`
	FlatStates    int      `json:"flat_states"`
	ReplayMisses  []uint64 `json:"replay_stage_misses"`
	Checked       int      `json:"session_checked_classes"`
	CheckedDigest uint64   `json:"session_checked_digest"`
	MirrorMisses  []uint64 `json:"session_stage_misses"`
}

func newCountRecord(rep *replayResult, mir *mirrorResult) countRecord {
	c := countRecord{DFAStates: rep.dfaStates, FlatStates: rep.flatStates, ReplayMisses: rep.misses,
		Checked: mir.checked, CheckedDigest: mir.hash}
	for _, x := range mir.stats.Stages {
		c.MirrorMisses = append(c.MirrorMisses, x.Misses)
	}
	return c
}

// checkCounts flags any count that does not repeat within the run: a
// second staged replay in this process and (edit-loop) the daemon's own
// per-round checked_classes against the session mirror. It writes the
// counts of the run's seed and of the held-out seed to the output
// directory, where two runs' records can be compared; it does not
// compare them itself, because the records carry cache reuse and miss
// counts that a change to the caches may legitimately move.
func checkCounts(cfg config, w workload, rep *replayResult, mir *mirrorResult, res *result) error {
	rec := newCountRecord(rep, mir)
	s, err := w.sample(nil)
	if err != nil {
		return err
	}
	again, err := stagedReplay(s.replay, s.want)
	if err != nil {
		return err
	}
	if got := newCountRecord(again, mir); !sameCounts(got, rec) {
		res.problem("staged replay counts differ between two replays: %s vs %s", mustJSON(got), mustJSON(rec))
	}
	if ew, ok := w.(*editWorkload); ok && ew.digests[traceBase] != mir.hash {
		res.problem("daemon per-round checked_classes differ from the session mirror")
	}
	if err := os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("counts-%s-%d.json", cfg.workload, cfg.seed)), mustJSON(rec), 0o644); err != nil {
		return err
	}

	held := cfg
	held.seed = heldOutSeed(cfg.seed)
	paper, err := loadPaper(cfg.root)
	if err != nil {
		return err
	}
	hw, err := newWorkload(held, paper)
	if err != nil {
		return err
	}
	hs, err := hw.sample(nil)
	if err != nil {
		return err
	}
	hrep, err := stagedReplay(hs.replay, hs.want)
	if err != nil {
		res.problem("held-out seed: %v", err)
		return nil
	}
	hmir, err := sessionMirror(hs.initial, hs.mirror)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("counts-%s-heldout-%d.json", cfg.workload, held.seed)),
		mustJSON(newCountRecord(hrep, hmir)), 0o644)
}

func sameCounts(a, b countRecord) bool { return string(mustJSON(a)) == string(mustJSON(b)) }

// ---------------------------------------------------------------------
// Process and machine.

type procSample struct{ alloc, cpu, pause float64 }

func readProcess() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{alloc: float64(ms.TotalAlloc), cpu: cpu.Seconds(), pause: float64(ms.PauseTotalNs) / 1e9}
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// machine is the record printed with every output: results compare
// only within one machine.
func machine() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	var sleeps []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		time.Sleep(20 * time.Microsecond)
		sleeps = append(sleeps, time.Since(start).Seconds()*1e6)
	}
	sort.Float64s(sleeps)
	return map[string]any{
		"cpu":                  cpu,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"sleep_20us_median_us": quantileSorted(sleeps, 0.5),
	}
}
