package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/check"
)

func paperCorpus(t *testing.T) []paperModule {
	t.Helper()
	paper, err := loadPaper("..")
	if err != nil {
		t.Fatal(err)
	}
	return paper
}

func TestSameSeedSameSources(t *testing.T) {
	paper := paperCorpus(t)
	for i := uint64(0); i < 50; i++ {
		a, b := corpus(paper, 7, "cold", i), corpus(paper, 7, "cold", i)
		if a.source != b.source || a.precise != b.precise {
			t.Fatalf("cold item %d differs between two draws with one seed", i)
		}
	}
	for j := uint64(0); j < warmModules; j++ {
		if warmItem(paper, 7, j).source != warmItem(paper, 7, j).source {
			t.Fatalf("warm module %d differs between two draws with one seed", j)
		}
	}
	if corpus(paper, 7, "cold", 3).source == corpus(paper, 8, "cold", 3).source {
		t.Fatal("seeds 7 and 8 draw the same module")
	}
	a, b := newEditModule(7), newEditModule(7)
	for round := 0; round < 200; round++ {
		if ka, kb := a.step(), b.step(); ka != kb || a.m.render() != b.m.render() {
			t.Fatalf("edit round %d differs between two sequences with one seed", round)
		}
	}
}

// checkInProcess verifies a source with the library, as the oracle's
// reference verdicts must agree with it on the seed commit.
func checkInProcess(t *testing.T, src string, precise bool) []*shelley.Report {
	t.Helper()
	mod, err := shelley.LoadSource(src)
	if err != nil {
		t.Fatalf("generated source does not load: %v\n%s", err, src)
	}
	var reps []*shelley.Report
	for _, c := range mod.Classes() {
		var opts []check.Option
		if precise {
			opts = append(opts, shelley.Precise())
		}
		rep, err := c.Check(opts...)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestPlantedVerdictsHold(t *testing.T) {
	paper := paperCorpus(t)
	planted := 0
	for i := uint64(0); i < 400; i++ {
		it := corpus(paper, 11, "cold", i)
		reps := checkInProcess(t, it.source, it.precise)
		if err := verdictError(reps, it.want); err != nil {
			t.Fatalf("item %d: %v\n%s", i, err, it.source)
		}
		for _, cx := range usageCounterexamples(it.source, reps) {
			planted++
			if err := cx.replayError(); err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
		}
	}
	if planted == 0 {
		t.Fatal("no usage counterexample was replayed")
	}
	for j := uint64(0); j < warmModules; j++ {
		it := warmItem(paper, 11, j)
		if err := verdictError(checkInProcess(t, it.source, false), it.want); err != nil {
			t.Fatalf("warm module %d: %v", j, err)
		}
	}
	e := newEditModule(11)
	for round := 0; round < 60; round++ {
		if err := verdictError(checkInProcess(t, e.m.render(), false), e.m.expect()); err != nil {
			t.Fatalf("edit round %d: %v", round, err)
		}
		e.step()
	}
}

func TestFlippedVerdictFails(t *testing.T) {
	paper := paperCorpus(t)
	var it corpusItem
	for i := uint64(0); ; i++ {
		if it = corpus(paper, 3, "cold", i); planted(it.want) {
			break
		}
	}
	reps := checkInProcess(t, it.source, it.precise)
	if err := verdictError(reps, it.want); err != nil {
		t.Fatal(err)
	}
	for class, kinds := range it.want.kinds {
		if len(kinds) > 0 {
			it.want.kinds[class] = nil
		}
	}
	if verdictError(reps, it.want) == nil {
		t.Fatal("the oracle accepts a planted error as OK")
	}
}

func planted(e expected) bool {
	for _, k := range e.kinds {
		if len(k) > 0 {
			return true
		}
	}
	return false
}

// TestFlippedGoldenFailsRun runs the benchmark against a copy of the
// corpus whose golden report says BadSector verifies clean: the run
// must fail with a non-zero exit code.
func TestFlippedGoldenFailsRun(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"valve.py", "badsector.py", "goodsector.py", "smarthome.py", "sector.py", "golden/badsector_report.txt"} {
		b, err := os.ReadFile(filepath.Join("..", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "golden/badsector_report.txt" {
			b = []byte("class BadSector: OK\n")
		}
		dst := filepath.Join(root, "testdata", f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paper := paperCorpus(t)
	found := false
	for j := uint64(0); j < warmModules; j++ {
		found = found || strings.Contains(warmItem(paper, 1, j).source, "class BadSector_")
	}
	if !found {
		t.Fatal("precondition: seed 1's warm modules include no BadSector")
	}
	var out, errb bytes.Buffer
	code := mainErr([]string{"--workload", "warm-recheck", "--seed", "1", "--seconds", "1", "--root", root, "--out", t.TempDir()}, &out, &errb)
	if code == 0 {
		t.Fatalf("run with a flipped golden verdict exited 0:\n%s", out.String())
	}
	if strings.Contains(out.String(), `"correct":true`) {
		t.Fatalf("run with a flipped golden verdict printed a correct result:\n%s", out.String())
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrintedMetricsAreDeclared runs every workload briefly, untraced and
// traced, and holds the printed metrics to BENCHMARK.json.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			trace := "0"
			if traced {
				trace = "1"
			}
			var out, errb bytes.Buffer
			code := mainErr([]string{"--workload", w, "--seed", "5", "--seconds", "2", "--trace", trace, "--root", "..", "--out", t.TempDir()}, &out, &errb)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool
				Metrics map[string]metricValue
			}
			if code != 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w, trace, code, out.String(), errb.String())
			}
			if !res.Correct {
				t.Errorf("%s trace=%s: incorrect run\n%s", w, trace, errb.String())
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want[traced]))
			}
			for name, v := range res.Metrics {
				if unit, ok := want[traced][name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%s: metric %s [%s] is not declared with that unit", w, trace, name, v.Unit)
				}
			}
		}
	}
}
