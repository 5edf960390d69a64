package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/shelley-go/shelley/client"
)

// workload is one traffic mix. A pass is one measured stretch of ops
// against one daemon; sample hands the traced run the inputs its layer
// measurements use (see layers.go).
type workload interface {
	// boot starts a fresh daemon and primes it; the caller times it.
	boot(spans *spanLog) error
	close()
	daemon() *daemon
	// used reports whether the daemon already served a pass that left
	// state a later pass must not see (the edit loop's session).
	used() bool
	// begin starts a phase whose op indices start at offset.
	begin(offset uint64)
	// pass records ops into p for at most seconds (the edit loop runs
	// exactly one fixed sequence instead). offset shifts the op indices,
	// so passes of one run draw distinct inputs. spans is nil in
	// untraced passes; traced passes send to the span-recording
	// listener.
	pass(p *phase, seconds float64, offset uint64, spans *spanLog) error
	// verify runs the checks that need the whole measured phase, after
	// the timing ends; each returned string is one failure.
	verify() []string
	// sample is the layer-by-layer input of the traced run.
	sample(spans *spanLog) (*layerSample, error)
}

// bufs recycles response buffers across ops.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func mix(seed, i uint64) uint64 {
	z := seed ^ (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// timedPost sends one request, timing the exchange (and recording the
// client span in a traced pass).
func timedPost(d *daemon, base, path string, body []byte, spans *spanLog, i uint64, buf *bytes.Buffer) (int, time.Duration, error) {
	var status int
	exchange := func() error {
		var err error
		status, err = d.post(base, path, body, spanIfTraced(spans, i), buf)
		return err
	}
	if spans != nil {
		lat, err := spans.client(spanID(i), exchange)
		return status, lat, err
	}
	start := time.Now()
	err := exchange()
	return status, time.Since(start), err
}

func spanIfTraced(spans *spanLog, i uint64) uint64 {
	if spans == nil {
		return 0
	}
	return spanID(i)
}

func statusError(status int, buf *bytes.Buffer) error {
	return fmt.Errorf("status %d: %.200s", status, buf.String())
}

// ---------------------------------------------------------------------
// warm-recheck: 64 resident modules re-checked over and over. Half the
// requests re-upload the source (what `shelleyc -server` sends), half
// name the fingerprint only; there is no traffic log, so the even split
// is an assumption. Every answer comes from the response-body cache.

const warmModules = 64

type warmWorkload struct {
	seed   uint64
	items  []corpusItem
	reqs   [][]byte // 2j: source form of module j, 2j+1: fingerprint form
	bodies [][]byte // the body module j received at setup
	d      *daemon
}

func newWarm(seed uint64, paper []paperModule) *warmWorkload {
	w := &warmWorkload{seed: seed}
	for j := uint64(0); j < warmModules; j++ {
		it := warmItem(paper, seed, j)
		w.items = append(w.items, it)
		w.reqs = append(w.reqs,
			mustJSON(client.CheckRequest{Source: it.source}),
			mustJSON(client.CheckRequest{Fingerprint: client.Fingerprint(it.source)}))
	}
	return w
}

func (w *warmWorkload) daemon() *daemon { return w.d }
func (w *warmWorkload) close()          { w.d.close() }

func (w *warmWorkload) boot(spans *spanLog) error {
	d, err := bootDaemon(false, spans)
	if err != nil {
		return err
	}
	w.d = d
	w.bodies = make([][]byte, warmModules)
	buf := new(bytes.Buffer)
	for j, it := range w.items {
		status, err := d.post(d.url, "/v1/check", w.reqs[2*j], 0, buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("priming module %d: %v %v", j, err, statusError(status, buf))
		}
		if err := checkResponse(buf.Bytes(), it.want); err != nil {
			return fmt.Errorf("priming module %d: %w", j, err)
		}
		w.bodies[j] = append([]byte(nil), buf.Bytes()...)
	}
	return nil
}

func (w *warmWorkload) pick(i uint64) (module, form int) {
	z := mix(w.seed, i)
	return int(z % warmModules), int(z >> 63)
}

func (w *warmWorkload) used() bool     { return false }
func (w *warmWorkload) begin(_ uint64) {}

func (w *warmWorkload) pass(p *phase, seconds float64, offset uint64, spans *spanLog) error {
	base := w.d.target(spans)
	p.run(conns, seconds, func(i uint64) error {
		j, form := w.pick(offset + i)
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		status, lat, err := timedPost(w.d, base, "/v1/check", w.reqs[2*j+form], spans, offset+i, buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return statusError(status, buf)
		}
		p.record(lat)
		if !bytes.Equal(buf.Bytes(), w.bodies[j]) {
			p.fail(fmt.Errorf("module %d: warm body differs from the body received at setup", j), true)
		}
		return nil
	})
	return nil
}

func (w *warmWorkload) verify() []string { return nil }

// ---------------------------------------------------------------------
// cold-verify: a seeded sequence of modules the daemon has never seen,
// so every request misses every cache and the whole pipeline runs.

// Op-index offsets of the passes of one run, so no pass sends a module
// another pass sent.
const (
	warmupBase = 1 << 39
	traceBase  = 1 << 40
)

type coldWorkload struct {
	seed  uint64
	paper []paperModule
	d     *daemon
	out   string // directory for the counterexample spill file

	mu sync.Mutex
	// cexs spills the usage counterexamples of the measured ops to
	// disk, so the generator's memory (and heap_live_mib) does not grow
	// with the op count; verify replays and removes it.
	cexs    *os.File
	cexsBuf *bufio.Writer
	// responses of the first sampleOps traced ops, for the encode layer.
	traced [][]byte
}

// cexRef locates a usage counterexample: the op index regenerates the
// source after the timed phase, so the spill keeps no sources.
type cexRef struct {
	I     uint64   `json:"i"`
	Class string   `json:"class"`
	Trace []string `json:"trace"`
}

// spill appends counterexamples of op i to the spill file. w.mu is held.
func (w *coldWorkload) spill(i uint64, cexs []counterexample) error {
	if len(cexs) == 0 {
		return nil
	}
	if w.cexs == nil {
		f, err := os.CreateTemp(w.out, "cex-*.ndjson")
		if err != nil {
			return err
		}
		w.cexs, w.cexsBuf = f, bufio.NewWriter(f)
	}
	for _, c := range cexs {
		// A bufio.Writer keeps its first error; verify reports it from
		// Flush.
		w.cexsBuf.Write(mustJSON(cexRef{I: i, Class: c.class, Trace: c.trace}))
		w.cexsBuf.WriteByte('\n')
	}
	return nil
}

func (w *coldWorkload) daemon() *daemon { return w.d }
func (w *coldWorkload) close()          { w.d.close() }

func (w *coldWorkload) boot(spans *spanLog) error {
	d, err := bootDaemon(false, spans)
	if err != nil {
		return err
	}
	w.d = d
	buf := new(bytes.Buffer)
	// Prime with the stratified warm set rather than drawn modules, so
	// the set-up work varies little between seeds.
	for j := uint64(0); j < warmModules; j++ {
		it := warmItem(w.paper, w.seed, j)
		status, err := d.post(d.url, "/v1/check", mustJSON(client.CheckRequest{Source: it.source, Precise: it.precise}), 0, buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("priming module %d: %v %v", j, err, statusError(status, buf))
		}
		if err := checkResponse(buf.Bytes(), it.want); err != nil {
			return fmt.Errorf("priming module %d: %w", j, err)
		}
	}
	return nil
}

func (w *coldWorkload) used() bool     { return false }
func (w *coldWorkload) begin(_ uint64) {}

func (w *coldWorkload) pass(p *phase, seconds float64, offset uint64, spans *spanLog) error {
	base := w.d.target(spans)
	traced := spans != nil
	p.run(conns, seconds, func(i uint64) error {
		it := corpus(w.paper, w.seed, "cold", offset+i)
		body := mustJSON(client.CheckRequest{Source: it.source, Precise: it.precise})
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		status, lat, err := timedPost(w.d, base, "/v1/check", body, spans, offset+i, buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return statusError(status, buf)
		}
		p.record(lat)
		var resp client.CheckResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			p.fail(fmt.Errorf("decoding response: %w", err), true)
			return nil
		}
		if err := verdictError(resp.Reports, it.want); err != nil {
			p.fail(fmt.Errorf("cold module %d: %w", offset+i, err), true)
			return nil
		}
		cexs := usageCounterexamples(it.source, resp.Reports)
		w.mu.Lock()
		defer w.mu.Unlock()
		if err := w.spill(offset+i, cexs); err != nil {
			return err
		}
		if traced && i < sampleOps {
			for len(w.traced) <= int(i) {
				w.traced = append(w.traced, nil)
			}
			w.traced[i] = append([]byte(nil), buf.Bytes()...)
		}
		return nil
	})
	return nil
}

// verify replays every usage counterexample the daemon returned through
// the interp simulator, which must reject it.
func (w *coldWorkload) verify() []string {
	if w.cexs == nil {
		return nil
	}
	f := w.cexs
	w.cexs = nil
	defer os.Remove(f.Name())
	defer f.Close()
	if err := w.cexsBuf.Flush(); err != nil {
		return []string{"spilling counterexamples: " + err.Error()}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return []string{"reading counterexamples: " + err.Error()}
	}
	var out []string
	dec := json.NewDecoder(f)
	for {
		var c cexRef
		if err := dec.Decode(&c); errors.Is(err, io.EOF) {
			return out
		} else if err != nil {
			return append(out, "reading counterexamples: "+err.Error())
		}
		it := corpus(w.paper, w.seed, "cold", c.I)
		cx := counterexample{source: it.source, class: c.Class, trace: c.Trace}
		if err := cx.replayError(); err != nil {
			out = append(out, err.Error())
		}
	}
}

// ---------------------------------------------------------------------
// edit-loop: one editor pushes a sequence of edit rounds to one watch
// session. A pass is one such sequence on a fresh daemon; pass k of a
// run edits the module of sub-seed k, so a run averages over several
// modules while every pass starts from an empty session.

// editRounds is the length of one pass. The session's cache grows
// every round; the pass length fixes where heap_live_mib is read.
const editRounds = 250

const editSession = "editor"

type editWorkload struct {
	seed uint64
	d    *daemon
	e    *editModule
	// next is the module index of the next pass: passes of one phase
	// edit modules editSeed(seed, offset+k), k = 0, 1, ...
	next   uint64
	pushed bool // the daemon's session has moved past its first generation
	// digests maps a pass's module index to a digest of the daemon's
	// per-round checked_classes; the traced run compares it with the
	// session mirror.
	digests map[uint64]uint64
	traced  [][]byte // responses of the first traced pass
}

func editSeed(seed, pass uint64) uint64 { return mix(seed, pass) }

func (w *editWorkload) daemon() *daemon { return w.d }
func (w *editWorkload) close()          { w.d.close() }

// boot starts a daemon whose session holds the first generation of the
// next pass's module.
func (w *editWorkload) boot(spans *spanLog) error {
	d, err := bootDaemon(true, spans)
	if err != nil {
		return err
	}
	w.d, w.pushed = d, false
	w.e = newEditModule(editSeed(w.seed, w.next))
	buf := new(bytes.Buffer)
	status, err := d.post(d.url, "/v1/watch", mustJSON(client.WatchRequest{Session: editSession, Source: w.e.m.render()}), 0, buf)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("initial push: %v %v", err, statusError(status, buf))
	}
	if _, err := checkWatch(buf.Bytes(), 1, w.e.m.expect()); err != nil {
		return fmt.Errorf("initial push: %w", err)
	}
	return nil
}

func (w *editWorkload) used() bool { return w.pushed }

// begin starts a phase whose passes edit modules offset, offset+1, ...,
// so which modules a phase edits does not depend on how many passes
// earlier phases fitted into their time.
func (w *editWorkload) begin(offset uint64) {
	if w.next != offset {
		w.next, w.pushed = offset, true // the resident session is stale
	}
}

// pass pushes editRounds rounds over one connection.
func (w *editWorkload) pass(p *phase, _ float64, _ uint64, spans *spanLog) error {
	w.pushed = true
	base := w.d.target(spans)
	module := w.next
	w.next++
	h := fnv.New64a()
	buf := new(bytes.Buffer)
	start := time.Now()
	for round := uint64(0); round < editRounds; round++ {
		p.attempts.Add(1)
		w.e.step()
		body := mustJSON(client.WatchRequest{Session: editSession, Source: w.e.m.render()})
		status, lat, err := timedPost(w.d, base, "/v1/watch", body, spans, module*editRounds+round, buf)
		if err != nil || status != http.StatusOK {
			p.fail(fmt.Errorf("round %d: %v %v", round, err, statusError(status, buf)), false)
			continue
		}
		p.record(lat)
		checked, err := checkWatch(buf.Bytes(), round+2, w.e.m.expect())
		if err != nil {
			p.fail(fmt.Errorf("round %d: %w", round, err), true)
			continue
		}
		fmt.Fprintf(h, "%d:%d;", round, checked)
		if spans != nil && module == traceBase {
			w.traced = append(w.traced, append([]byte(nil), buf.Bytes()...))
		}
	}
	p.endPass(time.Since(start))
	if w.digests == nil {
		w.digests = map[uint64]uint64{}
	}
	w.digests[module] = h.Sum64()
	return nil
}

func (w *editWorkload) verify() []string { return nil }

// ---------------------------------------------------------------------
// Response checks shared by setup and the measured ops.

func checkResponse(body []byte, want expected) error {
	var resp client.CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return verdictError(resp.Reports, want)
}

// checkWatch checks one watch round: its sequence number and its
// verdicts. It returns the round's checked_classes.
func checkWatch(body []byte, seq uint64, want expected) (int, error) {
	var upd client.WatchUpdate
	if err := json.Unmarshal(body, &upd); err != nil {
		return 0, fmt.Errorf("decoding watch update: %w", err)
	}
	if upd.Seq != seq {
		return 0, fmt.Errorf("watch seq %d, want %d", upd.Seq, seq)
	}
	if upd.CheckedClasses+upd.ReusedReports != len(upd.Reports) {
		return 0, errors.New("checked_classes + reused_reports != classes")
	}
	return upd.CheckedClasses, verdictError(upd.Reports, want)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return b
}

// ---------------------------------------------------------------------
// Layer samples.

func (w *warmWorkload) sample(spans *spanLog) (*layerSample, error) {
	s := &layerSample{requests: w.reqs, responses: w.bodies}
	for _, it := range w.items {
		s.replay = append(s.replay, it.source)
		s.want = append(s.want, it.want)
	}
	s.mirror = s.replay
	return s, nil
}

func (w *coldWorkload) sample(spans *spanLog) (*layerSample, error) {
	s := &layerSample{}
	for k := uint64(0); k < sampleOps; k++ {
		it := corpus(w.paper, w.seed, "cold", traceBase+k)
		s.replay = append(s.replay, it.source)
		s.want = append(s.want, it.want)
		s.requests = append(s.requests, mustJSON(client.CheckRequest{Source: it.source, Precise: it.precise}))
		if spans == nil {
			continue
		}
		if _, ok := spans.handlerTime(spanID(traceBase + k)); ok {
			s.opIDs = append(s.opIDs, spanID(traceBase+k))
		}
	}
	if spans != nil && len(s.opIDs) < sampleOps {
		return nil, fmt.Errorf("traced pass sent %d of the %d sampled modules; lengthen the run", len(s.opIDs), sampleOps)
	}
	s.mirror = s.replay
	for _, b := range w.traced {
		if b != nil {
			s.responses = append(s.responses, b)
		}
	}
	return s, nil
}

// editReplayRevisions is how many generations of the edit sequence the
// staged replay runs over (sharing one cache, as a session would).
const editReplayRevisions = 64

// sample is the first traced pass: module traceBase.
func (w *editWorkload) sample(spans *spanLog) (*layerSample, error) {
	e := newEditModule(editSeed(w.seed, traceBase))
	s := &layerSample{watch: true, responses: w.traced, initial: e.m.render()}
	s.replay = append(s.replay, s.initial)
	s.want = append(s.want, e.m.expect())
	for round := uint64(0); round < editRounds; round++ {
		e.step()
		src := e.m.render()
		s.mirror = append(s.mirror, src)
		if len(s.replay) < editReplayRevisions {
			s.replay = append(s.replay, src)
			s.want = append(s.want, e.m.expect())
		}
		if round < sampleOps {
			s.requests = append(s.requests, mustJSON(client.WatchRequest{Session: editSession, Source: src}))
		}
		if spans != nil {
			s.opIDs = append(s.opIDs, spanID(traceBase*editRounds+round))
		}
	}
	return s, nil
}
