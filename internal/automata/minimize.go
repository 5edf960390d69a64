package automata

import (
	"context"

	"github.com/shelley-go/shelley/internal/budget"
)

// Minimize returns the minimal DFA for the language of d, using
// Hopcroft's partition refinement (in the array form of Valmari and
// Lehtinen), then trimming the dead partition back out. Missing
// transitions go to a virtual dead sink, so the input is never copied
// to make it total. With n states and k symbols refinement runs in
// O(k·n log n) time. The result's states are numbered in BFS order from
// the start state, so minimization is canonical: two equivalent DFAs
// minimize to identical automata up to this numbering.
func (d *DFA) Minimize() *DFA {
	m, _ := d.MinimizeCtx(context.Background())
	return m
}

// MinimizeCtx is Minimize with cancellation observed between
// splitters. Minimization is polynomial in an input whose size the
// construction budgets already bound, so no state budget applies here;
// the gate only makes an expired deadline stop the worklist.
func (d *DFA) MinimizeCtx(ctx context.Context) (*DFA, error) {
	gate := budget.NewGate(ctx, "minimize", "", 0)
	n := d.NumStates()
	if n == 0 {
		return d.Clone(), nil
	}
	// State n is the virtual dead sink: absent transitions lead there,
	// and all of its own transitions loop back to it.
	k := len(d.alphabet)
	ns := n + 1
	delta := func(s, si int) int {
		if s == n {
			return n
		}
		if t := d.trans[s][si]; t >= 0 {
			return t
		}
		return n
	}

	// Inverse transitions in CSR form: the sources entering state t on
	// symbol si are src[off[si*ns+t]:off[si*ns+t+1]].
	off := make([]int, k*ns+1)
	for s := 0; s < ns; s++ {
		for si := 0; si < k; si++ {
			off[si*ns+delta(s, si)+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	src := make([]int, k*ns)
	fill := append([]int(nil), off[:k*ns]...)
	for s := 0; s < ns; s++ {
		for si := 0; si < k; si++ {
			i := si*ns + delta(s, si)
			src[fill[i]] = s
			fill[i]++
		}
	}

	// Refinable partition: block b owns elems[first[b]:end[b]], its
	// first marked[b] entries being the states marked by the current
	// splitter; loc inverts elems. The initial blocks are the rejecting
	// states (the sink among them) and the accepting states.
	elems := make([]int, 0, ns)
	loc := make([]int, ns)
	blockOf := make([]int, ns)
	first := make([]int, 0, ns)
	end := make([]int, 0, ns)
	marked := make([]int, ns)
	for b, accepting := range []bool{false, true} {
		start := len(elems)
		for s := 0; s < ns; s++ {
			if (s < n && d.accept[s]) == accepting {
				loc[s], blockOf[s] = len(elems), b
				elems = append(elems, s)
			}
		}
		if len(elems) > start {
			first = append(first, start)
			end = append(end, len(elems))
		}
	}

	// Worklist of (block, symbol) splitters encoded as block*k+symbol,
	// with inW tracking membership. Seeding only the smaller initial
	// block suffices for a total automaton (Hopcroft 1971).
	inW := make([]bool, ns*k)
	work := make([]int, 0, k)
	push := func(b int) {
		for si := 0; si < k; si++ {
			inW[b*k+si] = true
			work = append(work, b*k+si)
		}
	}
	if len(first) == 2 {
		if end[1]-first[1] < end[0]-first[0] {
			push(1)
		} else {
			push(0)
		}
	}

	splitter := make([]int, 0, ns)
	touched := make([]int, 0, ns)
	for len(work) > 0 {
		if err := gate.Tick(); err != nil {
			return nil, err
		}
		w := work[len(work)-1]
		work = work[:len(work)-1]
		inW[w] = false
		b, si := w/k, w%k

		// Snapshot the splitter: marking permutes blocks in place, and
		// the splitter block may be among those it splits.
		splitter = append(splitter[:0], elems[first[b]:end[b]]...)
		for _, t := range splitter {
			for _, s := range src[off[si*ns+t]:off[si*ns+t+1]] {
				c := blockOf[s]
				m := first[c] + marked[c]
				p := loc[s]
				if p < m {
					continue // already marked
				}
				if marked[c] == 0 {
					touched = append(touched, c)
				}
				q := elems[m]
				elems[p], loc[q] = q, p
				elems[m], loc[s] = s, m
				marked[c]++
			}
		}

		// Split each touched block into its marked and unmarked parts.
		// The smaller part becomes the new block, so it is the one
		// relabelled and the one pushed: if (c, σ) is pending, both
		// halves must be; if not, the smaller half suffices.
		for _, c := range touched {
			m := first[c] + marked[c]
			marked[c] = 0
			if m == end[c] {
				continue // every member marked: not split
			}
			nb := len(first)
			if m-first[c] <= end[c]-m {
				first = append(first, first[c])
				end = append(end, m)
				first[c] = m
			} else {
				first = append(first, m)
				end = append(end, end[c])
				end[c] = m
			}
			for _, s := range elems[first[nb]:end[nb]] {
				blockOf[s] = nb
			}
			push(nb)
		}
		touched = touched[:0]
	}

	// Build the quotient automaton, numbering blocks in BFS order.
	out := NewDFA(d.alphabet)
	blockState := make([]int, len(first))
	for i := range blockState {
		blockState[i] = -1
	}
	startBlock := blockOf[d.start]
	blockState[startBlock] = out.Start()
	out.SetAccepting(out.Start(), d.accept[d.start])
	queue := []int{startBlock}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		rep := elems[first[b]]
		for si := 0; si < k; si++ {
			tb := blockOf[delta(rep, si)]
			if blockState[tb] < 0 {
				r := elems[first[tb]]
				blockState[tb] = out.AddState(r < n && d.accept[r])
				queue = append(queue, tb)
			}
			out.setTransition(blockState[b], si, blockState[tb])
		}
	}
	return trimDead(out), nil
}

// trimDead removes states from which no accepting state is reachable,
// replacing their transitions with the implicit dead sink (-1).
func trimDead(d *DFA) *DFA {
	n := d.NumStates()
	// Reverse reachability from accepting states.
	radj := make([][]int, n)
	for s := 0; s < n; s++ {
		for _, t := range d.trans[s] {
			if t >= 0 {
				radj[t] = append(radj[t], s)
			}
		}
	}
	live := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if d.accept[s] {
			live[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[s] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}

	out := NewDFA(d.alphabet)
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	out.SetAccepting(out.Start(), d.accept[d.start])
	remap[d.start] = out.Start()
	queue := []int{d.start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for si, t := range d.trans[s] {
			if t < 0 || !live[t] {
				continue
			}
			if remap[t] < 0 {
				remap[t] = out.AddState(d.accept[t])
				queue = append(queue, t)
			}
			out.setTransition(remap[s], si, remap[t])
		}
	}
	return out
}
