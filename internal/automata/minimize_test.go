package automata

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/regex"
)

// mooreMinimize is the reference oracle for Minimize: Moore's
// refinement on the completed automaton, splitting every class by the
// classes of its successors until the class count stops growing, then
// the same BFS-numbered quotient and dead-state trim.
func mooreMinimize(d *DFA) *DFA {
	t := d.Complete()
	n, k := t.NumStates(), len(t.alphabet)
	class := make([]int, n)
	for s := range class {
		if t.accept[s] {
			class[s] = 1
		}
	}
	for count := -1; ; {
		ids := make(map[string]int)
		next := make([]int, n)
		for s := range next {
			sig := fmt.Sprint(class[s])
			for si := 0; si < k; si++ {
				sig += fmt.Sprint(" ", class[t.trans[s][si]])
			}
			if _, ok := ids[sig]; !ok {
				ids[sig] = len(ids)
			}
			next[s] = ids[sig]
		}
		class = next
		if len(ids) == count {
			break
		}
		count = len(ids)
	}
	out := NewDFA(t.alphabet)
	state := map[int]int{class[t.start]: out.Start()}
	out.SetAccepting(out.Start(), t.accept[t.start])
	for queue := []int{t.start}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		for si := 0; si < k; si++ {
			to := t.trans[s][si]
			if _, ok := state[class[to]]; !ok {
				state[class[to]] = out.AddState(t.accept[to])
				queue = append(queue, to)
			}
			out.setTransition(state[class[s]], si, state[class[to]])
		}
	}
	return trimDead(out)
}

// randomPartialDFA returns a DFA with 1..maxStates states over 1..4
// symbols, a random start state and missing transitions. Acceptance is
// drawn per mode: 0 none, 1 exactly one state, 2 all, otherwise random.
func randomPartialDFA(rng *rand.Rand, maxStates int) *DFA {
	n := 1 + rng.Intn(maxStates)
	alpha := []string{"a", "b", "c", "d"}[:1+rng.Intn(4)]
	d := NewDFA(alpha)
	for d.NumStates() < n {
		d.AddState(false)
	}
	d.start = rng.Intn(n)
	absent := rng.Float64() * 0.6
	for s := 0; s < n; s++ {
		for si := range alpha {
			if rng.Float64() >= absent {
				d.setTransition(s, si, rng.Intn(n))
			}
		}
	}
	switch rng.Intn(8) {
	case 0:
	case 1:
		d.accept[rng.Intn(n)] = true
	case 2:
		for s := range d.accept {
			d.accept[s] = true
		}
	default:
		for s := range d.accept {
			d.accept[s] = rng.Intn(3) == 0
		}
	}
	return d
}

func TestMinimizeMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 12000; i++ {
		d := randomPartialDFA(rng, 30)
		before := d.Clone()
		got, want := d.Minimize(), mooreMinimize(d)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Minimize differs from Moore on %+v:\ngot  %+v\nwant %+v", i, d, got, want)
		}
		if !reflect.DeepEqual(d, before) {
			t.Fatalf("case %d: Minimize mutated its input", i)
		}
	}
}

// largeDerivativeDFA is the derivative DFA of (a+b)*·a·(a+b)^9: the
// ninth-from-last symbol is an a, which needs 2^10 states.
func largeDerivativeDFA(tb testing.TB) *DFA {
	src := "(a + b)* . a"
	for i := 0; i < 9; i++ {
		src += " . (a + b)"
	}
	d := FromRegexDerivatives(regex.MustParse(src))
	if d.NumStates() < 500 {
		tb.Fatalf("derivative DFA has %d states, want at least 500", d.NumStates())
	}
	return d
}

// BenchmarkMinimizeLarge times Minimize against the Moore oracle on the
// same input in the same run, so the ratio between the two is the
// machine-independent figure.
func BenchmarkMinimizeLarge(b *testing.B) {
	d := largeDerivativeDFA(b)
	for _, bc := range []struct {
		name string
		min  func(*DFA) *DFA
	}{
		{"hopcroft", (*DFA).Minimize},
		{"moore", mooreMinimize},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMinimized = bc.min(d)
			}
		})
	}
}

var benchMinimized *DFA
