package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"feam/internal/feam"
)

// runTiny runs one tiny-size workload through the command-line entry
// point and decodes its result line.
func runTiny(t *testing.T, workload string, trace bool) Result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.4",
		"--size", "tiny", "--root", ".."}
	if trace {
		args = append(args, "--trace", "1", "--spans-out", filepath.Join(t.TempDir(), "spans.jsonl"))
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v\nstdout: %s\nstderr: %s", workload, err, stdout.String(), stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: exit %d, result %+v\nstderr: %s", workload, code, res, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, workload string, got map[string]Metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(want))
	}
	for _, s := range want {
		m, ok := got[s.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, s.Name)
			continue
		}
		if m.Unit != s.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, s.Name, m.Unit, s.Unit)
		}
	}
}

func TestTinyRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, w, false)
			checkMetrics(t, w, res.Metrics, endToEnd)
			for _, s := range endToEnd {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, s.Name, res.Metrics[s.Name].Value)
				}
			}
			traced := runTiny(t, w, true)
			checkMetrics(t, w, traced.Metrics, perLayer)
			if traced.Metrics["trace.spans"].Value <= 0 {
				t.Errorf("%s: traced run kept no spans", w)
			}
		})
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	p := Params{Root: "..", Tiny: true}
	spec, err := loadFleet(p)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := hotPlan(spec, 7)
	b, _ := hotPlan(spec, 7)
	c, _ := hotPlan(spec, 8)
	if !reflect.DeepEqual(a.sites, b.sites) || reflect.DeepEqual(a.sites, c.sites) {
		t.Error("serve-hot: request sequence is not a function of the seed")
	}

	if !reflect.DeepEqual(churnTimeline(7, 3), churnTimeline(7, 3)) ||
		reflect.DeepEqual(churnTimeline(7, 3), churnTimeline(8, 3)) {
		t.Error("fleet-churn: timeline is not a function of the seed")
	}
	for _, cyc := range [][]churnKind{churnTimeline(7, 5)} {
		pos := map[churnKind]int{}
		for i, k := range cyc[:churnKinds] {
			pos[k] = i
		}
		for _, do := range []churnKind{evUpgrade, evRollout, evRemove, evStrip} {
			if pos[undoOf(do)] < pos[do] {
				t.Errorf("fleet-churn: %s comes before %s", undoOf(do), do)
			}
		}
	}

	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(matrixSubset(g, 7, 0), matrixSubset(g, 7, 0)) ||
		reflect.DeepEqual(matrixSubset(g, 7, 0), matrixSubset(g, 8, 0)) {
		t.Error("migration-matrix: subset is not a function of the seed")
	}
}

func TestCheckersRejectWrongAnswers(t *testing.T) {
	answer := []byte(`{"data":{"site":"grid-0","ready":true,"determinants":{}}}`)
	if ok, _ := checkHot(map[string]bool{"grid-0": true}, "grid-0", 200, answer); !ok {
		t.Error("serve-hot: right answer rejected")
	}
	if ok, _ := checkHot(map[string]bool{"grid-0": false}, "grid-0", 200, answer); ok {
		t.Error("serve-hot: wrong expected readiness accepted")
	}

	ready := &feam.Prediction{Ready: true, Determinants: map[feam.Determinant]feam.DeterminantResult{}}
	notReady := &feam.Prediction{Ready: false, Determinants: map[feam.Determinant]feam.DeterminantResult{}}
	warm := []feam.SiteAssessment{{Site: "a", Prediction: ready}}
	if d := diffRankings(warm, []feam.SiteAssessment{{Site: "a", Prediction: ready}}); d != "" {
		t.Errorf("fleet-churn: equal rankings differ: %s", d)
	}
	if d := diffRankings(warm, []feam.SiteAssessment{{Site: "a", Prediction: notReady}}); d == "" {
		t.Error("fleet-churn: wrong cold ranking accepted")
	}
	pass := &feam.Prediction{Ready: true, Determinants: map[feam.Determinant]feam.DeterminantResult{feam.DetISA: {Outcome: feam.Pass}}}
	fail := &feam.Prediction{Ready: true, Determinants: map[feam.Determinant]feam.DeterminantResult{feam.DetISA: {Outcome: feam.Fail}}}
	if d := diffRankings([]feam.SiteAssessment{{Site: "a", Prediction: pass}}, []feam.SiteAssessment{{Site: "a", Prediction: fail}}); d == "" {
		t.Error("fleet-churn: cold ranking with another determinant outcome accepted")
	}

	got := goldenPair{Binary: "cg", Target: "india", Basic: true, Extended: true, Before: true, After: true}
	want := map[string]goldenPair{got.key(): got}
	if ok, _ := checkPair(want, got); !ok {
		t.Error("migration-matrix: right outcome rejected")
	}
	wrong := got
	wrong.After = false
	want[got.key()] = wrong
	if ok, _ := checkPair(want, got); ok {
		t.Error("migration-matrix: wrong golden outcome accepted")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists in
// step with what the runs print.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"serve-hot", "fleet-churn", "migration-matrix"}) {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", n)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, tables say %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the tables")
	}
}
