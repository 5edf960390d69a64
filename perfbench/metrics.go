package main

import (
	"encoding/json"
	"math"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, printed by
// untraced runs. failed_ratio is reported through the result line's
// attempted/failed counts (and as a per-layer metric), because an
// end-to-end metric must never read 0.
var endToEnd = []metricDecl{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_live_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run.
var perLayer = []metricDecl{
	{"client.wire_ms", "ms"},
	{"client.loop_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.fingerprint_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.body_hit_ratio", "ratio"},
	{"server.module_hit_ratio", "ratio"},
	{"server.module_evictions", "count"},
	{"server.queue_depth_mean", "count"},
	{"server.workers_busy_mean", "count"},
	{"pyparse.parse_ms", "ms"},
	{"model.build_ms", "ms"},
	{"core.infer_ms", "ms"},
	{"automata.behavior_dfa_ms", "ms"},
	{"automata.dfa_states", "count"},
	{"check.spec_ms", "ms"},
	{"check.flatten_ms", "ms"},
	{"check.flat_states", "count"},
	{"ltlf.claim_ms", "ms"},
	{"check.verify_ms", "ms"},
	{"pipeline.behavior.hit_ratio", "ratio"},
	{"pipeline.dfa.hit_ratio", "ratio"},
	{"pipeline.spec.hit_ratio", "ratio"},
	{"pipeline.flatten.hit_ratio", "ratio"},
	{"pipeline.claim.hit_ratio", "ratio"},
	{"pipeline.report.hit_ratio", "ratio"},
	{"pipeline.misses", "count"},
	{"pipeline.entries", "count"},
	{"session.update_ms", "ms"},
	{"session.recheck_ms", "ms"},
	{"session.checked_classes", "count"},
	{"session.reused_reports", "count"},
	{"process.alloc_kib_per_op", "KiB"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.gc_pause_ms", "ms"},
	{"cold.unattributed_ratio", "ratio"},
	{"trace_overhead_ratio", "ratio"},
	{"failed_ratio", "ratio"},
}

func metricNames(ds []metricDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.name
	}
	return out
}

func unitOf(name string) string {
	for _, ds := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range ds {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the run's last output line: every declared metric of
// the run's kind, nothing else. A metric that was not measured, or is
// not a finite number, makes the run incorrect.
func resultJSON(r *result, traced bool) []byte {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return b
}
