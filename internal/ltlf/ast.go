// Package ltlf implements linear temporal logic on finite traces (LTLf,
// De Giacomo & Vardi 2013), the logic of Shelley's @claim annotations
// (§2.2 of the paper). A trace is a finite sequence of events (operation
// names such as "a.open"); an atom holds at an instant iff it is the
// event at that instant.
//
// The package provides a parser for the claim syntax, a direct
// finite-trace evaluator, and a compiler from formulas to DFAs via
// formula progression — realizing the paper's future-work plan of
// checking claims directly on regular languages instead of encoding
// them for NuSMV.
package ltlf

import (
	"sort"
	"strings"
)

// Formula is an LTLf formula node. Formulas are immutable.
type Formula interface {
	// String renders the formula using the claim syntax: ! & | ->
	// X N U W R G F, with atoms as dotted names.
	String() string

	precedence() int
	key() string
}

type (
	// Tru is the constant true.
	Tru struct{}

	// Fls is the constant false.
	Fls struct{}

	// Atom holds at an instant iff the event at that instant equals
	// Name.
	Atom struct{ Name string }

	// Not is logical negation.
	Not struct{ X Formula }

	// And is conjunction (n-ary, flattened and deduplicated).
	And struct{ Xs []Formula }

	// Or is disjunction (n-ary, flattened and deduplicated).
	Or struct{ Xs []Formula }

	// Implies is material implication.
	Implies struct{ L, R Formula }

	// Next is the strong next: a next instant exists and satisfies X.
	Next struct{ X Formula }

	// WeakNext is the weak next: the trace ends here, or the next
	// instant satisfies X.
	WeakNext struct{ X Formula }

	// Until is the strong until: R eventually holds, and L holds at
	// every earlier instant.
	Until struct{ L, R Formula }

	// WeakUntil is L W R = (L U R) | G L.
	WeakUntil struct{ L, R Formula }

	// Release is L R R2: R2 holds up to and including the instant where
	// L first holds; if L never holds, R2 holds forever.
	Release struct{ L, R Formula }

	// Globally is G X: X holds at every instant (vacuously true on the
	// empty trace).
	Globally struct{ X Formula }

	// Finally is F X: X holds at some instant.
	Finally struct{ X Formula }

	// nonempty is an internal pseudo-atom produced by progression of a
	// strong Next: it holds exactly on non-empty traces.
	nonempty struct{}
)

// Constructors. True/False/NewAtom are trivial; AndOf/OrOf normalize
// (flatten, drop units, deduplicate, sort) so that progression states
// have canonical keys.

// True returns the constant true.
func True() Formula { return Tru{} }

// False returns the constant false.
func False() Formula { return Fls{} }

// NewAtom returns the atom with the given event name.
func NewAtom(name string) Formula { return Atom{Name: name} }

// NotOf returns the negation of x, folding constants and double
// negation.
func NotOf(x Formula) Formula {
	switch x := x.(type) {
	case Tru:
		return Fls{}
	case Fls:
		return Tru{}
	case Not:
		return x.X
	}
	return Not{X: x}
}

// AndOf returns the conjunction of xs in normal form.
func AndOf(xs ...Formula) Formula {
	seen := make(map[string]struct{})
	var parts []keyedFormula
	var add func(f Formula) bool // returns false on contradiction
	add = func(f Formula) bool {
		switch f := f.(type) {
		case Tru:
			return true
		case Fls:
			return false
		case And:
			for _, p := range f.Xs {
				if !add(p) {
					return false
				}
			}
			return true
		default:
			k := f.key()
			if _, dup := seen[k]; dup {
				return true
			}
			// a & !a = false
			if _, clash := seen[NotOf(f).key()]; clash {
				return false
			}
			seen[k] = struct{}{}
			parts = append(parts, keyedFormula{k, f})
			return true
		}
	}
	for _, x := range xs {
		if !add(x) {
			return Fls{}
		}
	}
	switch len(parts) {
	case 0:
		return Tru{}
	case 1:
		return parts[0].f
	}
	return And{Xs: sortByKey(parts)}
}

// OrOf returns the disjunction of xs in normal form.
func OrOf(xs ...Formula) Formula {
	seen := make(map[string]struct{})
	var parts []keyedFormula
	var add func(f Formula) bool // returns false on tautology
	add = func(f Formula) bool {
		switch f := f.(type) {
		case Fls:
			return true
		case Tru:
			return false
		case Or:
			for _, p := range f.Xs {
				if !add(p) {
					return false
				}
			}
			return true
		default:
			k := f.key()
			if _, dup := seen[k]; dup {
				return true
			}
			if _, clash := seen[NotOf(f).key()]; clash {
				return false
			}
			seen[k] = struct{}{}
			parts = append(parts, keyedFormula{k, f})
			return true
		}
	}
	for _, x := range xs {
		if !add(x) {
			return Tru{}
		}
	}
	switch len(parts) {
	case 0:
		return Fls{}
	case 1:
		return parts[0].f
	}
	return Or{Xs: sortByKey(parts)}
}

// keyedFormula is a normal-form operand stored with its key, so sorting
// compares the keys computed once for dedup instead of rebuilding them
// per comparison.
type keyedFormula struct {
	key string
	f   Formula
}

// sortByKey returns the operands in key order.
func sortByKey(parts []keyedFormula) []Formula {
	sort.Slice(parts, func(i, j int) bool { return parts[i].key < parts[j].key })
	out := make([]Formula, len(parts))
	for i, p := range parts {
		out[i] = p.f
	}
	return out
}

// ImpliesOf returns l -> r.
func ImpliesOf(l, r Formula) Formula { return Implies{L: l, R: r} }

// NextOf returns X x.
func NextOf(x Formula) Formula { return Next{X: x} }

// WeakNextOf returns N x.
func WeakNextOf(x Formula) Formula { return WeakNext{X: x} }

// UntilOf returns l U r.
func UntilOf(l, r Formula) Formula { return Until{L: l, R: r} }

// WeakUntilOf returns l W r.
func WeakUntilOf(l, r Formula) Formula { return WeakUntil{L: l, R: r} }

// ReleaseOf returns l R r.
func ReleaseOf(l, r Formula) Formula { return Release{L: l, R: r} }

// GloballyOf returns G x.
func GloballyOf(x Formula) Formula { return Globally{X: x} }

// FinallyOf returns F x.
func FinallyOf(x Formula) Formula { return Finally{X: x} }

// precedence levels (looser binds lower).
const (
	precImplies = iota + 1
	precOr
	precAnd
	precTemporalBin // U, W, R
	precUnary       // !, X, N, G, F
	precAtomic
)

func (Tru) precedence() int       { return precAtomic }
func (Fls) precedence() int       { return precAtomic }
func (Atom) precedence() int      { return precAtomic }
func (nonempty) precedence() int  { return precAtomic }
func (Not) precedence() int       { return precUnary }
func (Next) precedence() int      { return precUnary }
func (WeakNext) precedence() int  { return precUnary }
func (Globally) precedence() int  { return precUnary }
func (Finally) precedence() int   { return precUnary }
func (Until) precedence() int     { return precTemporalBin }
func (WeakUntil) precedence() int { return precTemporalBin }
func (Release) precedence() int   { return precTemporalBin }
func (And) precedence() int       { return precAnd }
func (Or) precedence() int        { return precOr }
func (Implies) precedence() int   { return precImplies }

func (Tru) String() string      { return "true" }
func (Fls) String() string      { return "false" }
func (a Atom) String() string   { return a.Name }
func (nonempty) String() string { return "<nonempty>" }

func (f Not) String() string      { return "!" + child(f.X, precUnary) }
func (f Next) String() string     { return "X " + child(f.X, precUnary) }
func (f WeakNext) String() string { return "N " + child(f.X, precUnary) }
func (f Globally) String() string { return "G " + child(f.X, precUnary) }
func (f Finally) String() string  { return "F " + child(f.X, precUnary) }

func (f Until) String() string {
	return child(f.L, precUnary) + " U " + child(f.R, precTemporalBin)
}
func (f WeakUntil) String() string {
	return child(f.L, precUnary) + " W " + child(f.R, precTemporalBin)
}
func (f Release) String() string {
	return child(f.L, precUnary) + " R " + child(f.R, precTemporalBin)
}

func (f And) String() string { return joinChildren(f.Xs, " & ", precAnd) }
func (f Or) String() string  { return joinChildren(f.Xs, " | ", precOr) }

func (f Implies) String() string {
	return child(f.L, precOr) + " -> " + child(f.R, precImplies)
}

func child(f Formula, parent int) string {
	if f.precedence() < parent {
		return "(" + f.String() + ")"
	}
	return f.String()
}

func joinChildren(fs []Formula, sep string, parent int) string {
	var b strings.Builder
	for i, f := range fs {
		if i > 0 {
			b.WriteString(sep)
		}
		// Children at the same precedence level are fine (assoc), below
		// need parens.
		if f.precedence() < parent {
			b.WriteString("(")
			b.WriteString(f.String())
			b.WriteString(")")
		} else {
			b.WriteString(f.String())
		}
	}
	return b.String()
}

func (Tru) key() string        { return "T" }
func (Fls) key() string        { return "F" }
func (a Atom) key() string     { return "a(" + a.Name + ")" }
func (nonempty) key() string   { return "ne" }
func (f Not) key() string      { return "!(" + f.X.key() + ")" }
func (f Next) key() string     { return "X(" + f.X.key() + ")" }
func (f WeakNext) key() string { return "N(" + f.X.key() + ")" }
func (f Globally) key() string { return "G(" + f.X.key() + ")" }
func (f Finally) key() string  { return "Fi(" + f.X.key() + ")" }
func (f Until) key() string    { return "U(" + f.L.key() + "," + f.R.key() + ")" }
func (f WeakUntil) key() string {
	return "W(" + f.L.key() + "," + f.R.key() + ")"
}
func (f Release) key() string { return "R(" + f.L.key() + "," + f.R.key() + ")" }
func (f And) key() string {
	parts := make([]string, len(f.Xs))
	for i, x := range f.Xs {
		parts[i] = x.key()
	}
	return "&(" + strings.Join(parts, ",") + ")"
}
func (f Or) key() string {
	parts := make([]string, len(f.Xs))
	for i, x := range f.Xs {
		parts[i] = x.key()
	}
	return "|(" + strings.Join(parts, ",") + ")"
}
func (f Implies) key() string { return "->(" + f.L.key() + "," + f.R.key() + ")" }

// Key returns a canonical structural key for f, usable as a map key.
func Key(f Formula) string { return f.key() }

// Atoms returns the sorted set of atom names occurring in f.
func Atoms(f Formula) []string {
	set := make(map[string]struct{})
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Atom:
			set[f.Name] = struct{}{}
		case Not:
			walk(f.X)
		case Next:
			walk(f.X)
		case WeakNext:
			walk(f.X)
		case Globally:
			walk(f.X)
		case Finally:
			walk(f.X)
		case Until:
			walk(f.L)
			walk(f.R)
		case WeakUntil:
			walk(f.L)
			walk(f.R)
		case Release:
			walk(f.L)
			walk(f.R)
		case Implies:
			walk(f.L)
			walk(f.R)
		case And:
			for _, x := range f.Xs {
				walk(x)
			}
		case Or:
			for _, x := range f.Xs {
				walk(x)
			}
		}
	}
	walk(f)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
