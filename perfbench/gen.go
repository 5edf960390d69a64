package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"github.com/shelley-go/shelley/internal/check"
)

// The generator writes MicroPython modules whose verdict is known by
// construction, so the oracle never has to trust the checker it grades.
//
// Every protocol it builds obeys four rules, and every composite body is
// a walk that respects them:
//
//   - op0 is the only initial operation and its continuation lists name
//     only op1 and op2; calling op3 right after op0 is therefore always a
//     protocol violation (the planted usage error).
//   - every continuation list of a non-final operation other than op0
//     names the last operation, which is final, so a walk can always end
//     within two calls;
//   - every continuation list of a final operation names op0, so one
//     complete usage may follow another (loops over whole sessions);
//   - op i always reaches op i+1, so every operation is reachable.
//
// A composite operation drives each subsystem through complete usages
// only (op0 ... final), matching every exit of a multi-exit call, so an
// unplanted composite has no usage error. Claims are chosen from two
// shapes whose truth follows from that structure: "(!f.opK) W f.op0"
// always holds, and "(!g.op0) W f.op0" holds exactly when the first
// statement of the initial operation is an unconditional usage of f.

// verbs names operations; a protocol draws its names from a shuffle.
var verbs = []string{
	"test", "open", "close", "clean", "start", "stop", "sample", "send",
	"wake", "sleep", "read", "write", "arm", "fire", "reset", "poll",
	"load", "flush", "lock", "unlock", "tick", "sync", "probe", "drain",
	"charge", "vent", "prime", "seal", "scan", "tune", "mark", "park",
}

const maxBaseOps = 24

// opSpec is one operation of a protocol: its continuation lists, one per
// return statement, as operation indices.
type opSpec struct {
	name           string
	initial, final bool
	exits          [][]int
}

// classSpec is one generated class. Bases drive pins; composites drive
// subsystem fields. protoSeed fixes the protocol, bodySeeds[i] fixes the
// body of operation i, so an edit bumps exactly one of them.
type classSpec struct {
	name      string
	nops      int
	composite bool
	fields    []fieldSpec
	claims    []claimSpec
	plant     check.Kind // 0, KindInvalidSubsystemUsage or KindClaimFailure
	nameSeed  uint64
	protoSeed uint64
	bodySeeds []uint64
	ops       []opSpec // derived from protoSeed by buildProtocol
}

type fieldSpec struct {
	name string
	typ  int // index of the field's class in the module
}

// claimSpec is a claim template resolved against the current protocols
// when rendered: kind "first" is "(!g.op0) W f.op0" (false when g's
// usage comes first), kind "order" is "(!f.opK) W f.op0" (always true).
type claimSpec struct {
	kind string
	f, g int // field indices
	k    int // operation index for "order"
}

// moduleSpec is a whole generated module; classes appear in dependency
// order (a field's class precedes its user).
type moduleSpec struct {
	classes []*classSpec
}

// expected is the verdict the oracle holds a response to: for every
// class, the set of diagnostic kinds its report must carry (empty means
// OK), plus the exact report text for paper-derived classes.
type expected struct {
	kinds  map[string][]check.Kind
	golden map[string]string
}

func newRand(seed uint64, stream string, i uint64) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed^h, i*0x9e3779b97f4a7c15+h))
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// buildProtocol derives the class's operations from protoSeed. Names
// depend only on the class (so a protocol edit keeps them); the
// continuation lists depend on protoSeed.
func (c *classSpec) buildProtocol() {
	names := append([]string(nil), verbs...)
	nr := rand.New(rand.NewPCG(c.nameSeed, 7))
	nr.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	r := rand.New(rand.NewPCG(c.protoSeed, 11))
	n := c.nops
	last := n - 1
	c.ops = make([]opSpec, n)
	for i := range c.ops {
		c.ops[i].name = names[i]
	}
	c.ops[0].initial = true
	if c.composite {
		// Composites have one return per operation: a chain with
		// occasional back edges, the last operation closing the cycle.
		c.ops[0].exits = [][]int{{1}}
		for i := 1; i < last; i++ {
			l := []int{i + 1}
			if r.IntN(3) == 0 {
				l = append(l, 1+r.IntN(i))
			}
			c.ops[i].exits = [][]int{l}
		}
		c.ops[last].final = true
		c.ops[last].exits = [][]int{{0}}
		return
	}
	// Which operations are final and which branch is fixed by position,
	// so protocols of one size differ only in their edges and the
	// module size varies little between seeds.
	c.ops[0].exits = [][]int{{1}}
	if r.IntN(2) == 0 {
		c.ops[0].exits = [][]int{{1, 2}}
	}
	for i := 1; i < last; i++ {
		op := &c.ops[i]
		op.final = i%4 == 3
		two := i%3 == 2
		if op.final {
			op.exits = [][]int{{0, i + 1}}
			if two {
				op.exits = [][]int{{0}, {0, i + 1}}
			}
			continue
		}
		a := []int{i + 1, last}
		if r.IntN(3) == 0 {
			a = append(a, i) // self loop: "while" over one call
		}
		op.exits = [][]int{a}
		if two {
			b := []int{last, 1 + r.IntN(last)}
			if !sameSet(a, b) {
				op.exits = append(op.exits, b)
			}
		}
	}
	c.ops[last].final = true
	c.ops[last].exits = [][]int{{0}}
	for i := range c.ops {
		for j, l := range c.ops[i].exits {
			c.ops[i].exits[j] = dedupSorted(l)
		}
	}
}

func sameSet(a, b []int) bool {
	a, b = dedupSorted(a), dedupSorted(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dedupSorted(l []int) []int {
	out := append([]int(nil), l...)
	sort.Ints(out)
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// distToFinal is, per operation, the number of further calls a walk
// needs to end after calling it, whichever exit it takes.
func (c *classSpec) distToFinal() []int {
	const inf = 1 << 20
	d := make([]int, len(c.ops))
	for i, op := range c.ops {
		if op.final {
			d[i] = 0
		} else {
			d[i] = inf
		}
	}
	for changed := true; changed; {
		changed = false
		for i, op := range c.ops {
			if op.final {
				continue
			}
			worst := 0
			for _, ex := range op.exits {
				best := inf
				for _, nx := range ex {
					best = min(best, d[nx]+1)
				}
				worst = max(worst, best)
			}
			if worst < d[i] {
				d[i], changed = worst, true
			}
		}
	}
	return d
}

// writer accumulates indented source lines.
type writer struct {
	b     strings.Builder
	lines int
}

func (w *writer) line(indent int, s string) {
	for i := 0; i < indent; i++ {
		w.b.WriteString("    ")
	}
	w.b.WriteString(s)
	w.b.WriteByte('\n')
	w.lines++
}

func quoteList(c *classSpec, l []int) string {
	parts := make([]string, len(l))
	for i, x := range l {
		parts[i] = `"` + c.ops[x].name + `"`
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// render writes the module's source.
func (m *moduleSpec) render() string {
	var w writer
	for _, c := range m.classes {
		m.renderClass(&w, c)
		w.line(0, "")
	}
	return w.b.String()
}

func decorator(op opSpec) string {
	switch {
	case op.initial && op.final:
		return "@op_initial_final"
	case op.initial:
		return "@op_initial"
	case op.final:
		return "@op_final"
	}
	return "@op"
}

func (m *moduleSpec) renderClass(w *writer, c *classSpec) {
	for _, cl := range c.claims {
		w.line(0, `@claim("`+m.claimText(c, cl)+`")`)
	}
	if !c.composite {
		w.line(0, "@sys")
		w.line(0, "class "+c.name+":")
		w.line(1, "def __init__(self):")
		for p := 0; p < 3; p++ {
			w.line(2, fmt.Sprintf("self.p%d = Pin(%d, OUT)", p, 20+p))
		}
		for i, op := range c.ops {
			r := rand.New(rand.NewPCG(c.bodySeeds[i], uint64(i)))
			w.line(0, "")
			w.line(1, decorator(op))
			w.line(1, "def "+op.name+"(self):")
			for k := r.IntN(3); k >= 0; k-- {
				w.line(2, fmt.Sprintf("self.p%d.%s()", r.IntN(3), pick(r, []string{"on", "off"})))
			}
			if r.IntN(3) == 0 {
				w.line(2, fmt.Sprintf("while self.p%d.value():", r.IntN(3)))
				w.line(3, fmt.Sprintf("self.p%d.%s()", r.IntN(3), pick(r, []string{"on", "off"})))
			}
			if len(op.exits) == 1 {
				w.line(2, "return "+quoteList(c, op.exits[0]))
				continue
			}
			w.line(2, fmt.Sprintf("if self.p%d.value():", r.IntN(3)))
			w.line(3, "return "+quoteList(c, op.exits[0]))
			w.line(2, "else:")
			w.line(3, "return "+quoteList(c, op.exits[1]))
		}
		return
	}
	names := make([]string, len(c.fields))
	for i, f := range c.fields {
		names[i] = `"` + f.name + `"`
	}
	w.line(0, "@sys(["+strings.Join(names, ", ")+"])")
	w.line(0, "class "+c.name+":")
	w.line(1, "def __init__(self):")
	for _, f := range c.fields {
		w.line(2, "self."+f.name+" = "+m.classes[f.typ].name+"()")
	}
	for i, op := range c.ops {
		r := rand.New(rand.NewPCG(c.bodySeeds[i], uint64(i)))
		w.line(0, "")
		w.line(1, decorator(op))
		w.line(1, "def "+op.name+"(self):")
		if i == 0 && c.plant == check.KindInvalidSubsystemUsage {
			f := c.fields[m.plantField(c)]
			sub := m.classes[f.typ]
			w.line(2, "self."+f.name+"."+sub.ops[0].name+"()")
			w.line(2, "self."+f.name+"."+sub.ops[3].name+"()")
		}
		for pos, fi := range m.opFields(c, i, r) {
			g := &walker{w: w, r: r, field: c.fields[fi].name, sub: m.classes[c.fields[fi].typ]}
			g.dist = g.sub.distToFinal()
			// The block shapes follow a fixed pattern, so module size
			// varies little between seeds; operation 0 opens with a
			// plain usage, which the claims rely on.
			switch (i + pos) % 4 {
			case 0, 1:
				g.session(2)
			case 2:
				w.line(2, fmt.Sprintf("while self.more_%s():", c.fields[fi].name))
				g.session(3)
			case 3:
				w.line(2, fmt.Sprintf("if self.ready_%s():", c.fields[fi].name))
				g.session(3)
				w.line(2, "else:")
				g.session(3)
			}
		}
		if r.IntN(4) == 0 {
			w.line(2, fmt.Sprintf(`print("%s done")`, op.name))
		}
		w.line(2, "return "+quoteList(c, op.exits[0]))
	}
}

// opFields orders the fields composite operation i drives: every field
// once, in a seeded order. Operation 0 starts with firstField, so
// claims about which usage comes first are decided by construction.
func (m *moduleSpec) opFields(c *classSpec, i int, r *rand.Rand) []int {
	out := r.Perm(len(c.fields))
	if i == 0 {
		first := firstField(c)
		for k, f := range out {
			if f == first {
				out[0], out[k] = out[k], out[0]
			}
		}
	}
	return out
}

// firstField is the field whose usage opens operation 0: field 0,
// unless a claim plant needs the claim's g to come first.
func firstField(c *classSpec) int {
	if c.plant == check.KindClaimFailure {
		for _, cl := range c.claims {
			if cl.kind == "first" {
				return cl.g
			}
		}
	}
	return 0
}

// plantField is the base-typed field the planted usage error targets.
func (m *moduleSpec) plantField(c *classSpec) int {
	for i, f := range c.fields {
		if !m.classes[f.typ].composite {
			return i
		}
	}
	panic("usage plant without a base-typed field")
}

// claimText renders a claim of a composite over its fields' operations.
func (m *moduleSpec) claimText(c *classSpec, cl claimSpec) string {
	f := c.fields[cl.f]
	sub := m.classes[f.typ]
	switch cl.kind {
	case "first":
		g := c.fields[cl.g]
		return fmt.Sprintf("(!%s.%s) W %s.%s", g.name, m.classes[g.typ].ops[0].name, f.name, sub.ops[0].name)
	default:
		return fmt.Sprintf("(!%s.%s) W %s.%s", f.name, sub.ops[cl.k%len(sub.ops)].name, f.name, sub.ops[0].name)
	}
}

// walker renders complete usages of one subsystem field.
type walker struct {
	w      *writer
	r      *rand.Rand
	field  string
	sub    *classSpec
	dist   []int
	budget int
}

func (g *walker) session(indent int) {
	g.budget = 3
	g.call(indent, 0)
}

func (g *walker) call(indent, cur int) {
	op := g.sub.ops[cur]
	call := "self." + g.field + "." + op.name + "()"
	if len(op.exits) == 1 {
		g.w.line(indent, call)
		g.next(indent, cur, op.exits[0])
		return
	}
	g.w.line(indent, "match "+call+":")
	for _, ex := range op.exits {
		g.w.line(indent+1, "case "+quoteList(g.sub, ex)+":")
		before := g.w.lines
		g.next(indent+2, cur, ex)
		if g.w.lines == before {
			g.w.line(indent+2, "pass")
		}
	}
}

// next continues the usage after cur returned list: stop when cur is
// final (always once the budget is spent), else call a successor.
func (g *walker) next(indent, cur int, list []int) {
	if g.sub.ops[cur].final && (g.budget <= 0 || g.r.IntN(3) == 0) {
		return
	}
	g.budget--
	choices := list
	if len(g.sub.ops[cur].exits) == 1 && contains(list, cur) && g.r.IntN(2) == 0 {
		g.w.line(indent, fmt.Sprintf("while self.busy_%s():", g.field))
		g.w.line(indent+1, "self."+g.field+"."+g.sub.ops[cur].name+"()")
		choices = without(list, cur)
	}
	nx := choices[g.r.IntN(len(choices))]
	if g.budget <= 0 {
		for _, c := range choices {
			if g.dist[c] < g.dist[nx] {
				nx = c
			}
		}
	}
	g.call(indent, nx)
}

func contains(l []int, x int) bool {
	for _, v := range l {
		if v == x {
			return true
		}
	}
	return false
}

func without(l []int, x int) []int {
	var out []int
	for _, v := range l {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// expect derives the verdict of every class from its plant.
func (m *moduleSpec) expect() expected {
	e := expected{kinds: make(map[string][]check.Kind)}
	for _, c := range m.classes {
		if c.plant != 0 {
			e.kinds[c.name] = []check.Kind{c.plant}
		} else {
			e.kinds[c.name] = nil
		}
	}
	return e
}

// newClass allocates a class with fresh seeds.
func newClass(r *rand.Rand, name string, nops int, composite bool) *classSpec {
	c := &classSpec{name: name, nops: nops, composite: composite, nameSeed: r.Uint64(), protoSeed: r.Uint64()}
	c.bodySeeds = make([]uint64, nops)
	for i := range c.bodySeeds {
		c.bodySeeds[i] = r.Uint64()
	}
	return c
}

// build derives every protocol; call after any seed changes.
func (m *moduleSpec) build() {
	for _, c := range m.classes {
		c.buildProtocol()
	}
}

// addComposite appends a composite over the given field types. plant
// selects a planted error; claims adds that many claims (at least two
// fields are needed for a "first" claim).
func (m *moduleSpec) addComposite(r *rand.Rand, name string, types []int, nops int, plant check.Kind, claims int) {
	c := newClass(r, name, nops, true)
	fieldNames := []string{"a", "b", "c", "d"}
	for i, t := range types {
		c.fields = append(c.fields, fieldSpec{name: fieldNames[i], typ: t})
	}
	c.plant = plant
	if plant == check.KindClaimFailure {
		// g (field 1) comes first, so "(!g.op0) W f.op0" fails.
		c.claims = append(c.claims, claimSpec{kind: "first", f: 0, g: 1})
	}
	for k := 0; k < claims; k++ {
		if len(types) > 1 && plant != check.KindClaimFailure && r.IntN(2) == 0 {
			c.claims = append(c.claims, claimSpec{kind: "first", f: 0, g: 1 + r.IntN(len(types)-1)})
		} else {
			c.claims = append(c.claims, claimSpec{kind: "order", f: r.IntN(len(types)), k: 1 + r.IntN(3)})
		}
	}
	m.classes = append(m.classes, c)
}

// genModule draws one module for the cold and warm workloads. The
// shapes mirror the paper's examples: a long base chain driven by one
// composite, a small base+composite pair, or a multi-subsystem
// composite carrying claims. About a quarter carry one planted error.
func genModule(r *rand.Rand, tag string) *moduleSpec {
	plant := r.IntN(4) == 0
	return genShape(r, tag, plant, r.IntN(3), 0)
}

// genShape builds a module of one shape: 0 a chain, 1 a pair, 2 a
// composite with claims. chainOps fixes a chain's operation count; 0
// draws it.
func genShape(r *rand.Rand, tag string, plant bool, shape, chainOps int) *moduleSpec {
	m := &moduleSpec{}
	base := func(lo, hi int) int {
		n := lo + r.IntN(hi-lo+1)
		m.classes = append(m.classes, newClass(r, fmt.Sprintf("Dev%d%s", len(m.classes), tag), n, false))
		return len(m.classes) - 1
	}
	switch shape {
	case 0: // chain
		lo, hi := 4, maxBaseOps
		if chainOps > 0 {
			lo, hi = chainOps, chainOps
		}
		b := base(lo, hi)
		kind := check.Kind(0)
		if plant {
			kind = check.KindInvalidSubsystemUsage
		}
		m.addComposite(r, "Ctl"+tag, []int{b}, 2+r.IntN(3), kind, 0)
	case 1: // pair
		b1 := base(4, 10)
		types := []int{b1}
		if r.IntN(2) == 0 {
			types = append(types, base(4, 10))
		}
		kind := check.Kind(0)
		if plant {
			kind = check.KindInvalidSubsystemUsage
		}
		m.addComposite(r, "Pair"+tag, types, 2+r.IntN(3), kind, 0)
	default: // claims
		types := []int{base(4, 8), base(4, 8)}
		if r.IntN(2) == 0 {
			types = append(types, base(4, 8))
		}
		kind := check.Kind(0)
		if plant {
			kind = check.KindClaimFailure
		}
		m.addComposite(r, "Sys"+tag, types, 2+r.IntN(3), kind, 1+r.IntN(2))
	}
	m.build()
	return m
}

// paperModule is one of the paper's examples from testdata, with every
// class renamed so each copy is a module the daemon has never seen.
type paperModule struct {
	name    string
	source  string
	classes []string
	names   []*regexp.Regexp // names[k] matches classes[k] as a word
	kinds   map[string][]check.Kind
	golden  map[string]string // class → report text
}

var classDef = regexp.MustCompile(`(?m)^class (\w+)`)

// loadPaper reads the paper's examples and the committed golden report.
func loadPaper(root string) ([]paperModule, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "testdata", name))
		return string(b), err
	}
	valve, err := read("valve.py")
	if err != nil {
		return nil, fmt.Errorf("reading paper corpus: %w", err)
	}
	out := []paperModule{}
	for _, p := range []struct {
		name  string
		files []string
		kinds map[string][]check.Kind
	}{
		{"badsector", []string{"badsector.py"}, map[string][]check.Kind{
			"BadSector": {check.KindInvalidSubsystemUsage, check.KindClaimFailure}}},
		{"goodsector", []string{"goodsector.py"}, nil},
		{"smarthome", []string{"smarthome.py"}, nil},
		{"sector", []string{"sector.py"}, nil},
	} {
		src := ""
		if p.name == "badsector" || p.name == "goodsector" {
			src = valve + "\n"
		}
		for _, f := range p.files {
			s, err := read(f)
			if err != nil {
				return nil, fmt.Errorf("reading paper corpus: %w", err)
			}
			src += s
		}
		pm := paperModule{name: p.name, source: src, kinds: map[string][]check.Kind{}, golden: map[string]string{}}
		for _, mm := range classDef.FindAllStringSubmatch(src, -1) {
			pm.classes = append(pm.classes, mm[1])
			pm.names = append(pm.names, regexp.MustCompile(`\b`+mm[1]+`\b`))
			pm.kinds[mm[1]] = p.kinds[mm[1]]
		}
		out = append(out, pm)
	}
	g, err := read("golden/badsector_report.txt")
	if err != nil {
		return nil, fmt.Errorf("reading golden report: %w", err)
	}
	out[0].golden["BadSector"] = strings.TrimSuffix(g, "\n")
	return out, nil
}

// instance renames every class of the paper module with tag.
func (p *paperModule) instance(tag string) (string, expected) {
	src := p.source
	e := expected{kinds: map[string][]check.Kind{}, golden: map[string]string{}}
	for k, c := range p.classes {
		src = p.names[k].ReplaceAllString(src, c+tag)
		e.kinds[c+tag] = p.kinds[c]
	}
	for c, g := range p.golden {
		for k, other := range p.classes {
			g = p.names[k].ReplaceAllString(g, other+tag)
		}
		e.golden[c+tag] = g
	}
	return src, e
}

// warmItem is the j-th module of the warm-recheck set. The set is
// stratified rather than drawn, so its total size (and so the daemon's
// resident heap) varies little between seeds: every eighth module is a
// paper example (each of the four twice), the others cycle through the
// three shapes with chain lengths spread over 4-24 operations.
func warmItem(paper []paperModule, seed, j uint64) corpusItem {
	tag := fmt.Sprintf("_w%d", j)
	var it corpusItem
	if j%8 == 0 {
		p := &paper[(j/8)%uint64(len(paper))]
		it.source, it.want = p.instance(tag)
		return it
	}
	r := newRand(seed, "warm", j)
	m := genShape(r, tag, r.IntN(4) == 0, int(j%3), 4+int(j*5%21))
	it.source, it.want = m.render(), m.expect()
	return it
}

// corpusItem is one generated check request with its expected verdict.
type corpusItem struct {
	source  string
	precise bool
	want    expected
}

// corpus draws the i-th module of a seeded stream: about one in seven is
// a renamed paper example, the rest come from genModule; about one in
// ten is checked in precise mode. The draw depends only on (seed,
// stream, i), so items are produced lazily and repeat exactly.
func corpus(paper []paperModule, seed uint64, stream string, i uint64) corpusItem {
	r := newRand(seed, stream, i)
	tag := fmt.Sprintf("_%s%d", stream[:1], i)
	it := corpusItem{precise: r.IntN(10) == 0}
	if r.IntN(7) == 0 {
		p := &paper[r.IntN(len(paper))]
		it.source, it.want = p.instance(tag)
		return it
	}
	m := genModule(r, tag)
	it.source, it.want = m.render(), m.expect()
	return it
}
