package main

import (
	"fmt"
	"sort"
	"strings"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/check"
)

// verdictError compares one module's reports with the verdicts the
// generator planted: the same classes, each carrying exactly the
// expected set of diagnostic kinds, and the committed golden text for
// paper-derived classes that have one.
func verdictError(reports []*shelley.Report, want expected) error {
	if len(reports) != len(want.kinds) {
		return fmt.Errorf("got %d class reports, want %d", len(reports), len(want.kinds))
	}
	for _, rep := range reports {
		kinds, ok := want.kinds[rep.Class]
		if !ok {
			return fmt.Errorf("unexpected class %s in reports", rep.Class)
		}
		if got, w := kindSet(rep), kindNames(kinds); got != w {
			return fmt.Errorf("class %s: diagnostics [%s], want [%s]", rep.Class, got, w)
		}
		if g, ok := want.golden[rep.Class]; ok && rep.String() != g {
			return fmt.Errorf("class %s: report differs from the golden report:\n%s\nwant:\n%s", rep.Class, rep.String(), g)
		}
	}
	return nil
}

func kindSet(rep *shelley.Report) string {
	kinds := make([]check.Kind, 0, len(rep.Diagnostics))
	for _, d := range rep.Diagnostics {
		kinds = append(kinds, d.Kind)
	}
	return kindNames(kinds)
}

func kindNames(kinds []check.Kind) string {
	seen := map[string]bool{}
	var names []string
	for _, k := range kinds {
		if s := k.String(); !seen[s] {
			seen[s] = true
			names = append(names, s)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// counterexample is one usage counterexample a response carried, kept
// for replay through the simulator after the timed phase.
type counterexample struct {
	source string
	class  string
	trace  []string
}

// usageCounterexamples lists the INVALID SUBSYSTEM USAGE witnesses of a
// response.
func usageCounterexamples(source string, reports []*shelley.Report) []counterexample {
	var out []counterexample
	for _, rep := range reports {
		for _, d := range rep.Diagnostics {
			if d.Kind == check.KindInvalidSubsystemUsage && len(d.Counterexample) > 0 {
				out = append(out, counterexample{source: source, class: rep.Class, trace: d.Counterexample})
			}
		}
	}
	return out
}

// replayError drives the class's subsystems with the counterexample in
// the interp simulator (Class.ReplayFlat); a genuine counterexample must
// be rejected there.
func (c counterexample) replayError() error {
	mod, err := shelley.LoadSource(c.source)
	if err != nil {
		return fmt.Errorf("reloading %s: %w", c.class, err)
	}
	cls, ok := mod.Class(c.class)
	if !ok {
		return fmt.Errorf("class %s missing on reload", c.class)
	}
	if err := cls.ReplayFlat(c.trace); err == nil {
		return fmt.Errorf("class %s: counterexample %v is accepted by the simulator", c.class, c.trace)
	}
	return nil
}
