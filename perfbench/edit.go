package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/shelley-go/shelley/internal/check"
)

// editModule is the module one editor keeps pushing to a watch session:
// bases, composites over bases and composites of composites, so a
// protocol edit has dependents two levels up. Its state is a handful of
// seeds per class; a revision is a copy of those seeds, so keeping the
// last revisions for reverts costs O(classes) each, and every source
// is rendered from the state on demand.
type editModule struct {
	m       *moduleSpec
	r       *rand.Rand
	used    []int      // classes some other class uses as a field type
	history [][]uint64 // ring of revision states, newest last
}

const (
	editBases      = 10
	editComposites = 9
	editTop        = 5
	revertWindow   = 100
)

// newEditModule builds the module of one seed. Its shape — class
// counts, operation counts, which class uses which — is the same for
// every seed, so runs with different seeds do comparable work; the
// seed draws names, protocols, method bodies and the edit sequence.
func newEditModule(seed uint64) *editModule {
	r := newRand(seed, "edit", 0)
	m := &moduleSpec{}
	for i := 0; i < editBases; i++ {
		m.classes = append(m.classes, newClass(r, fmt.Sprintf("Dev%d", i), 4+i%5, false))
	}
	for i := 0; i < editComposites; i++ {
		types := []int{i % editBases, (i + 3) % editBases, (i + 6) % editBases}[:1+i%3]
		plant := check.Kind(0)
		switch i {
		case 2:
			plant = check.KindInvalidSubsystemUsage
		case 5:
			plant = check.KindClaimFailure
		}
		m.addComposite(r, fmt.Sprintf("Unit%d", i), types, 2+i%3, plant, i%2)
	}
	for i := 0; i < editTop; i++ {
		types := []int{editBases + (2*i)%editComposites, editBases + (2*i+1)%editComposites}[:1+i%2]
		if i%3 == 0 {
			types = append(types, i%editBases)
		}
		m.addComposite(r, fmt.Sprintf("Plant%d", i), types, 2+i%2, 0, i%2)
	}
	m.build()
	e := &editModule{m: m, r: r}
	seen := map[int]bool{}
	for _, c := range m.classes {
		for _, f := range c.fields {
			if !seen[f.typ] {
				seen[f.typ] = true
				e.used = append(e.used, f.typ)
			}
		}
	}
	e.history = append(e.history, e.state())
	return e
}

func (e *editModule) state() []uint64 {
	var s []uint64
	for _, c := range e.m.classes {
		s = append(s, c.protoSeed)
		s = append(s, c.bodySeeds...)
	}
	return s
}

func (e *editModule) restore(s []uint64) {
	k := 0
	for _, c := range e.m.classes {
		c.protoSeed = s[k]
		k++
		k += copy(c.bodySeeds, s[k:k+len(c.bodySeeds)])
	}
	e.m.build()
}

// Edit kinds. How often each occurs (see step) and how far back a
// revert reaches (revertWindow) are assumptions of the benchmark, not
// measurements: there is no log of editor traffic to take them from.
const (
	editBody     = "body"
	editProtocol = "protocol"
	editRevert   = "revert"
)

// step applies the next seeded edit and returns its kind: about 70%
// edit one method body, 20% change a protocol that other classes use
// (invalidating dependents), 10% return to a revision up to
// revertWindow rounds back. The proportions are assumed, not measured.
func (e *editModule) step() string {
	kind := editBody
	x := e.r.IntN(10)
	if x == 9 && len(e.history) < 2 {
		x = 0 // nothing to revert to yet
	}
	switch {
	case x < 7:
		c := e.m.classes[e.r.IntN(len(e.m.classes))]
		c.bodySeeds[e.r.IntN(len(c.bodySeeds))] = e.r.Uint64()
	case x < 9:
		kind = editProtocol
		e.m.classes[e.used[e.r.IntN(len(e.used))]].protoSeed = e.r.Uint64()
		e.m.build()
	default:
		kind = editRevert
		back := 2 + e.r.IntN(min(revertWindow, len(e.history))-1)
		e.restore(e.history[len(e.history)-back])
	}
	e.history = append(e.history, e.state())
	if len(e.history) > revertWindow {
		e.history = e.history[1:]
	}
	return kind
}
