package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
)

// Every layer number of the traced run is taken from outside the
// program: the benchmark calls each module's public functions from its
// own files and times the calls.

// sampleOps bounds the per-workload inputs the layer measurements use.
const sampleOps = 256

// stageNames are the pipeline stages in dependency order, as the
// pipeline names them.
var stageNames = func() []string {
	out := make([]string, pipeline.NumStages)
	for s := range out {
		out[s] = pipeline.Stage(s).String()
	}
	return out
}()

// layerSample is what one workload hands to the layer measurements.
type layerSample struct {
	// replay are the module sources the staged replay runs over, with
	// their expected verdicts.
	replay []string
	want   []expected
	// mirror are the sources pushed through the session mirror, after
	// initial (the edit loop's first generation, not counted) when set.
	mirror  []string
	initial string
	// requests and responses are wire bodies of the workload's ops.
	requests  [][]byte
	responses [][]byte
	watch     bool // bodies are watch requests/updates, not checks
	// opIDs are the client spans whose end-to-end time the ledger uses
	// (nil: every traced op).
	opIDs []uint64
}

// microMs times fn over every item, repeating whole sweeps until at
// least 100 ms were spent, and returns the mean ms per item (0 without
// items).
func microMs(n int, fn func(k int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for k := 0; k < n; k++ {
			fn(k)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(calls)
}

// wireLayers measures decode, fingerprint and encode on the sample's
// bodies.
func wireLayers(s *layerSample) (decode, fingerprint, fpShare, encode float64, err error) {
	decode = microMs(len(s.requests), func(k int) {
		var v any = new(client.CheckRequest)
		if s.watch {
			v = new(client.WatchRequest)
		}
		_ = json.Unmarshal(s.requests[k], v) // bodies the benchmark marshalled
	})
	sources := make([]string, 0, len(s.requests))
	for _, b := range s.requests {
		var req client.CheckRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, 0, 0, 0, err
		}
		if req.Source != "" {
			sources = append(sources, req.Source)
		}
	}
	fingerprint = microMs(len(sources), func(k int) { _ = client.Fingerprint(sources[k]) })
	fpShare = float64(len(sources)) / float64(max(1, len(s.requests)))
	decoded := make([]any, len(s.responses))
	for k, b := range s.responses {
		var v any = new(client.CheckResponse)
		if s.watch {
			v = new(client.WatchUpdate)
		}
		if err := json.Unmarshal(b, v); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("decoding sampled response: %w", err)
		}
		decoded[k] = v
	}
	encode = microMs(len(decoded), func(k int) {
		_, _ = json.Marshal(decoded[k]) // values json.Unmarshal just built
	})
	return decode, fingerprint, fpShare, encode, nil
}

// replayResult is one staged replay: per-module time of each stage and
// the counts that must repeat exactly for a seed.
type replayResult struct {
	ms         map[string]float64
	dfaStates  int
	flatStates int
	misses     []uint64
}

// stagedReplay runs the frontend and then each pipeline stage over all
// sources, one stage at a time in dependency order over one shared
// pipeline.Cache, so every stage finds the artifacts of the earlier ones
// cached and its time is its own. The replay runs with no resource
// budget in the context (check.FlattenedDFA takes none, and every stage
// must use the same cache keys); it checks default-mode verdicts only.
//
// Flattening has no public entry point of its own (FlattenedDFA also
// minimizes the result, which the checker never does), so it is timed
// by difference: check.CheckContext over a cache whose flatten stage is
// cold, minus check.CheckContext over a second cache, built the same
// way, whose flatten stage FlattenedDFA has filled. The second time is
// check.verify_ms: usage search, claim product and report.
func stagedReplay(sources []string, want []expected) (*replayResult, error) {
	res := &replayResult{ms: map[string]float64{}}
	n := float64(len(sources))
	timed := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		if name != "" {
			res.ms[name] = float64(time.Since(start).Nanoseconds()) / 1e6 / n
		}
		return err
	}
	asts := make([]*pyast.Module, len(sources))
	if err := timed("pyparse.parse_ms", func() error {
		for k, src := range sources {
			a, err := pyparse.ParseModule(src)
			if err != nil {
				return err
			}
			asts[k] = a
		}
		return nil
	}); err != nil {
		return nil, err
	}
	classes := make([][]*model.Class, len(sources))
	regs := make([]check.Registry, len(sources))
	if err := timed("model.build_ms", func() error {
		for k, a := range asts {
			regs[k] = check.Registry{}
			for _, cd := range a.Classes {
				mc, err := model.FromAST(cd)
				if err != nil {
					return err
				}
				classes[k] = append(classes[k], mc)
				regs[k][mc.Name] = mc
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	cold, warm := pipeline.New(), pipeline.New()
	if err := replayEarlyStages(classes, regs, cold, timed); err != nil {
		return nil, err
	}
	if err := eachClass(classes, true, func(_ int, c *model.Class) error {
		for _, op := range c.Operations {
			d, err := cold.BehaviorDFA(context.Background(), op.Method.Program)
			if err != nil {
				return err
			}
			res.dfaStates += d.NumStates()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	untimed := func(_ string, fn func() error) error { return timed("", fn) }
	if err := replayEarlyStages(classes, regs, warm, untimed); err != nil {
		return nil, err
	}
	if err := eachClass(classes, true, func(k int, c *model.Class) error {
		d, err := check.FlattenedDFA(c, regs[k], check.WithCache(warm))
		if err != nil {
			return err
		}
		res.flatStates += d.NumStates()
		return nil
	}); err != nil {
		return nil, err
	}
	verify := func(cache *pipeline.Cache, reports [][]*shelley.Report) func() error {
		return func() error {
			return eachClass(classes, false, func(k int, c *model.Class) error {
				rep, err := check.CheckContext(context.Background(), c, regs[k], check.WithCache(cache))
				reports[k] = append(reports[k], rep)
				return err
			})
		}
	}
	coldReports := make([][]*shelley.Report, len(sources))
	if err := timed("check.flatten_ms", verify(cold, coldReports)); err != nil {
		return nil, err
	}
	warmReports := make([][]*shelley.Report, len(sources))
	if err := timed("check.verify_ms", verify(warm, warmReports)); err != nil {
		return nil, err
	}
	res.ms["check.flatten_ms"] -= res.ms["check.verify_ms"]
	for k := range sources {
		for _, reports := range [][]*shelley.Report{coldReports[k], warmReports[k]} {
			if err := verdictError(reports, want[k]); err != nil {
				return nil, fmt.Errorf("staged replay, module %d: %w", k, err)
			}
		}
	}
	for _, st := range cold.Stats().Stages {
		res.misses = append(res.misses, st.Misses)
	}
	return res, nil
}

// eachClass calls fn for every class, or for every composite.
func eachClass(classes [][]*model.Class, compositesOnly bool, fn func(k int, c *model.Class) error) error {
	for k := range classes {
		for _, c := range classes[k] {
			if compositesOnly && len(c.SubsystemNames) == 0 {
				continue
			}
			if err := fn(k, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayEarlyStages fills cache with every stage flattening reads —
// behavior inference, behavior DFAs, protocol automata — and the claim
// automata, timing each stage with timed.
func replayEarlyStages(classes [][]*model.Class, regs []check.Registry, cache *pipeline.Cache,
	timed func(string, func() error) error) error {
	ctx := context.Background()
	_ = timed("core.infer_ms", func() error {
		return eachClass(classes, true, func(_ int, c *model.Class) error {
			for _, op := range c.Operations {
				cache.InferSimplified(ctx, op.Method.Program)
			}
			return nil
		})
	})
	if err := timed("automata.behavior_dfa_ms", func() error {
		return eachClass(classes, true, func(_ int, c *model.Class) error {
			for _, op := range c.Operations {
				if _, err := cache.BehaviorDFA(ctx, op.Method.Program); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	spec := func(c *model.Class, prefix string) (*automata.DFA, error) {
		return pipeline.MemoCtx(ctx, cache, pipeline.StageSpec, pipeline.SpecKey(c.ProtocolFingerprint(), prefix),
			func(context.Context) (*automata.DFA, error) { return c.SpecDFA(prefix) })
	}
	if err := timed("check.spec_ms", func() error {
		return eachClass(classes, false, func(k int, c *model.Class) error {
			if len(c.SubsystemNames) == 0 && len(c.Claims) == 0 {
				return nil
			}
			if _, err := spec(c, ""); err != nil {
				return err
			}
			for _, f := range c.SubsystemNames {
				if _, err := spec(regs[k][c.SubsystemTypes[f]], f); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return timed("ltlf.claim_ms", func() error {
		return eachClass(classes, false, func(k int, c *model.Class) error {
			if len(c.Claims) == 0 {
				return nil
			}
			alphabet, err := claimAlphabet(c, regs[k], spec)
			if err != nil {
				return err
			}
			for _, cl := range c.Claims {
				f, err := ltlf.Parse(cl.Formula)
				if err != nil {
					return err
				}
				if _, err := cache.ClaimNegation(ctx, f, cl.Formula, alphabet); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// claimAlphabet is the alphabet the checker compiles a class's claims
// over: the qualified subsystem operations of a composite, the class's
// own operations otherwise.
func claimAlphabet(c *model.Class, reg check.Registry, spec func(*model.Class, string) (*automata.DFA, error)) ([]string, error) {
	if len(c.SubsystemNames) == 0 {
		d, err := spec(c, "")
		if err != nil {
			return nil, err
		}
		return d.Alphabet(), nil
	}
	var out []string
	for _, f := range c.SubsystemNames {
		sub, ok := reg[c.SubsystemTypes[f]]
		if !ok {
			return nil, fmt.Errorf("class %s: unresolved subsystem %s", c.Name, f)
		}
		for _, op := range sub.Operations {
			out = append(out, f+"."+op.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// mirrorResult is the session mirror: the sample pushed through one
// shelley.Session the way a watch session runs it.
type mirrorResult struct {
	updateMs, recheckMs float64 // per round
	checked, reused     int     // totals over the rounds
	hash                uint64  // digest of the per-round checked_classes
	stats               pipeline.Stats
}

// sessionMirror times Session.Update (parse plus diff) and then
// Session.Recheck of the same bytes (re-verification only) for every
// source, under the daemon's default budget.
func sessionMirror(initial string, sources []string) (*mirrorResult, error) {
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	sess := shelley.NewSession()
	if initial != "" {
		if _, err := sess.Recheck(ctx, "bench", []byte(initial)); err != nil {
			return nil, err
		}
	}
	res := &mirrorResult{}
	h := fnv.New64a()
	var upd, rech time.Duration
	for k, src := range sources {
		start := time.Now()
		if _, _, err := sess.Update(ctx, "bench", []byte(src)); err != nil {
			return nil, err
		}
		mid := time.Now()
		r, err := sess.Recheck(ctx, "bench", []byte(src))
		if err != nil {
			return nil, err
		}
		rech += time.Since(mid)
		upd += mid.Sub(start)
		res.checked += r.CheckedClasses
		res.reused += r.ReusedReports
		fmt.Fprintf(h, "%d:%d;", k, r.CheckedClasses)
	}
	n := float64(max(1, len(sources)))
	res.updateMs = float64(upd.Nanoseconds()) / 1e6 / n
	res.recheckMs = float64(rech.Nanoseconds()) / 1e6 / n
	res.hash = h.Sum64()
	res.stats = sess.Module().PipelineStats()
	return res, nil
}

// moduleMirror repeats the daemon's cold path — load a module with a
// fresh cache, check every class — for each source and sums the
// pipeline activity.
func moduleMirror(sources []string) (pipeline.Stats, error) {
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	var agg pipeline.Stats
	for _, src := range sources {
		mod, err := shelley.LoadSource(src)
		if err != nil {
			return agg, err
		}
		if _, err := mod.CheckAllContext(ctx, 1); err != nil {
			return agg, err
		}
		st := mod.PipelineStats()
		if agg.Stages == nil {
			agg = st
			continue
		}
		for i := range agg.Stages {
			agg.Stages[i].Hits += st.Stages[i].Hits
			agg.Stages[i].Misses += st.Stages[i].Misses
			agg.Stages[i].Entries += st.Stages[i].Entries
		}
	}
	return agg, nil
}

func hitRatio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
