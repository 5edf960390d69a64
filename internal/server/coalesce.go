package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/store"
)

// call is one execution of a request key: the first request for the key
// becomes the leader and computes; identical requests arriving while it
// runs become followers and share the leader's byte-exact response. done
// is closed once status/body are final.
type call struct {
	done   chan struct{}
	status int
	body   []byte
}

func newCall() *call { return &call{done: make(chan struct{})} }

// resolve publishes the result and releases every follower. Safe to
// call once only.
func (c *call) resolve(status int, body []byte) {
	c.status = status
	c.body = body
	close(c.done)
}

// callTable is a resident module's calls by request key (checkKey, plus
// the infer and trace keys). Checking is deterministic and keys are
// content-addressed, so a check call that settles with 200 stays in the
// table as the memo for every later repeat. Any other outcome — non-200,
// an infer or trace call, a panic, a queue expiry, a refused submission
// — leaves the table before done closes, so no later request can latch
// onto a failure. What stays is bounded by two check keys (precise or
// not) per class plus two for the whole module: unknown classes are
// refused before a call is made.
type callTable struct {
	calls sync.Map // key → *call
}

// join returns key's call, creating it when absent. The creator is the
// leader and must settle the call. Followers allocate nothing.
func (t *callTable) join(key string) (c *call, leader bool) {
	if v, ok := t.calls.Load(key); ok {
		return v.(*call), false
	}
	v, loaded := t.calls.LoadOrStore(key, newCall())
	return v.(*call), !loaded
}

// memo returns the settled 200 body for key, lock-free and never
// waiting. It tests the status too: a call loaded here just before it
// settled non-200 is seen closed though settle already removed it.
func (t *callTable) memo(key string) ([]byte, bool) {
	v, ok := t.calls.Load(key)
	if !ok {
		return nil, false
	}
	c := v.(*call)
	select {
	case <-c.done:
		return c.body, c.status == http.StatusOK
	default:
		return nil, false
	}
}

// settle publishes the leader's result. A 200 with keep stays as key's
// memo entry; anything else is removed first, then released.
func (t *callTable) settle(key string, c *call, keep bool, status int, body []byte) {
	if !keep || status != http.StatusOK {
		t.calls.CompareAndDelete(key, c)
	}
	c.resolve(status, body)
}

// errNotResident distinguishes "fingerprint unknown" (404) from load
// failures (422).
var errNotResident = errors.New("server: module not resident")

// moduleEntry is one resident module with its own singleflight cell,
// so concurrent first requests for the same source parse it once, and
// its call table, which eviction drops with it.
type moduleEntry struct {
	ready chan struct{}
	mod   *shelley.Module
	err   error
	calls callTable
}

// loaded returns the module once it has loaded successfully; nil while
// it loads or after a failed load. It never blocks.
func (e *moduleEntry) loaded() *shelley.Module {
	select {
	case <-e.ready:
		if e.err == nil {
			return e.mod
		}
	default:
	}
	return nil
}

// moduleCache keeps loaded modules (and their warm pipeline caches)
// resident by content fingerprint. Residency is what turns the
// daemon's requests from process-lifetime work into lookups: the
// second check of an unchanged source is a fingerprint hit plus a
// report clone.
type moduleCache struct {
	mu      sync.Mutex
	entries map[string]*moduleEntry
	max     int
	met     *metrics

	// retired holds the pipeline counters of evicted modules, folded in
	// at eviction, so the scrape total never decreases.
	retired pipeline.Stats

	// store, when non-nil, is attached to every freshly loaded module's
	// report stage (Module.PersistReports): whole-class reports then
	// read through and write behind the durable artifact store, which is
	// what makes a restarted daemon's first source-bearing check a
	// decode instead of a full pipeline run.
	store *store.Store
}

func newModuleCache(max int, met *metrics, st *store.Store) *moduleCache {
	return &moduleCache{
		entries: make(map[string]*moduleEntry),
		max:     max,
		met:     met,
		retired: (*pipeline.Cache)(nil).Stats(),
		store:   st,
	}
}

// get returns the resident module entry for fp, loading it from source
// on first use. An empty source is a cache-only lookup and fails with
// errNotResident when the module is not in memory. Load errors are NOT
// made resident: a bad source answers 422 but does not occupy a slot,
// and a corrected re-upload under a new fingerprint loads fresh.
func (mc *moduleCache) get(ctx context.Context, fp, source string) (*moduleEntry, error) {
	mc.mu.Lock()
	if e, ok := mc.entries[fp]; ok {
		mc.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		mc.met.moduleHits.Add(1)
		return e, nil
	}
	if source == "" {
		mc.mu.Unlock()
		return nil, errNotResident
	}
	e := &moduleEntry{ready: make(chan struct{})}
	mc.entries[fp] = e
	mc.evictLocked(fp)
	mc.mu.Unlock()

	mc.met.moduleMisses.Add(1)
	e.mod, e.err = shelley.LoadReaderContext(ctx, shortFP(fp), strings.NewReader(source))
	if e.err == nil && mc.store != nil {
		// Attached before ready closes, so no check can race past a
		// module whose persistence layer is not yet in place.
		e.mod.PersistReports(mc.store)
	}
	close(e.ready)
	if e.err != nil {
		mc.mu.Lock()
		delete(mc.entries, fp)
		mc.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// evictLocked drops arbitrary settled entries (never keep, the entry
// just inserted) until the cache respects max. Eviction order is map
// order — effectively random — which is cheap and good enough for a
// content-addressed cache whose entries are all equally rebuildable.
// A follower holding one of the call table's calls is still resolved.
func (mc *moduleCache) evictLocked(keep string) {
	if mc.max <= 0 {
		return
	}
	for fp, e := range mc.entries {
		if len(mc.entries) <= mc.max {
			return
		}
		if fp == keep {
			continue
		}
		select {
		case <-e.ready:
			delete(mc.entries, fp)
			mc.met.moduleEvictions.Add(1)
			if e.err == nil {
				mc.retired = mc.retired.Add(e.mod.PipelineStats())
			}
		default:
			// Still loading; a follower may be blocked on ready.
		}
	}
}

// settled returns fp's entry when it is resident and loaded, else nil.
// It never blocks on a loading entry — memo lookups are an
// opportunistic fast path, not a synchronization point.
func (mc *moduleCache) settled(fp string) *moduleEntry {
	mc.mu.Lock()
	e := mc.entries[fp]
	mc.mu.Unlock()
	if e == nil || e.loaded() == nil {
		return nil
	}
	return e
}

// memo returns the memoized 200 body for key on fp's settled resident
// module: the first layer of the check path.
func (mc *moduleCache) memo(fp, key string) ([]byte, bool) {
	if e := mc.settled(fp); e != nil {
		return e.calls.memo(key)
	}
	return nil, false
}

// stats totals the pipeline counters of every module this cache ever
// loaded: the retired ones plus every resident one. It reads under the
// lock that eviction folds under, so the total never decreases.
func (mc *moduleCache) stats() pipeline.Stats {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	agg := mc.retired
	for _, e := range mc.entries {
		if m := e.loaded(); m != nil {
			agg = agg.Add(m.PipelineStats())
		}
	}
	return agg
}

// shortFP abbreviates a fingerprint for error labels.
func shortFP(fp string) string {
	if len(fp) > 15 {
		return fp[:15]
	}
	return fp
}
