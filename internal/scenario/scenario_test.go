package scenario

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"feam/internal/feam"
	"feam/internal/sitemodel"
)

const scenarioDir = "../../testdata/scenarios"

// corpusFiles lists the committed scenario files, failing the test if the
// corpus ever shrinks below the floor the suite promises.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) < 8 {
		t.Fatalf("scenario corpus has %d files, want at least 8", len(files))
	}
	return files
}

// TestScenarioCorpus replays every committed scenario file as a subtest —
// the CI entry point for the whole corpus. A failing assertion prints the
// scenario's own human-readable diff.
func TestScenarioCorpus(t *testing.T) {
	for _, path := range corpusFiles(t) {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".yaml"), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Load(data)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			res, err := Run(context.Background(), sc, RunOptions{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, a := range res.Assertions {
				if !a.OK {
					t.Errorf("%s", a.Diff)
				}
			}
			if res.Passed != (res.Failed == 0) {
				t.Errorf("Passed = %v with %d failed assertions", res.Passed, res.Failed)
			}
		})
	}
}

// TestScenarioCorpusCoverage pins the corpus's breadth: the failure modes
// the suite promises scenarios for must each appear in at least one file.
func TestScenarioCorpusCoverage(t *testing.T) {
	needed := map[string]bool{
		ActionSurvey: false, ActionUpgradeGlibc: false, ActionRemoveLibrary: false,
		ActionFaultRate: false, ActionOutage: false, ActionRestart: false,
		ActionSiteJoin: false, ActionSiteLeave: false,
	}
	for _, path := range corpusFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Load(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, ev := range sc.Events {
			if _, tracked := needed[ev.Action]; tracked {
				needed[ev.Action] = true
			}
		}
	}
	for action, seen := range needed {
		if !seen {
			t.Errorf("no committed scenario exercises the %s action", action)
		}
	}
}

// unfingerprintedRegistry simulates reverting the fingerprint-gated
// survey-caching guard: every lookup and store ignores the fingerprint,
// so a cached survey keeps being served after the site's environment
// changed underneath it.
type unfingerprintedRegistry struct {
	feam.SiteRegistry
}

func (r *unfingerprintedRegistry) LookupSurvey(site *sitemodel.Site, fingerprint uint64) (any, bool) {
	return r.SiteRegistry.LookupSurvey(site, 0)
}

func (r *unfingerprintedRegistry) StoreSurvey(site *sitemodel.Site, fingerprint uint64, value any) {
	r.SiteRegistry.StoreSurvey(site, 0, value)
}

// TestStaleSurveyScenarioCatchesRevertedGuard proves the corpus has
// teeth: stale-survey-regression.yaml passes against the real engine (the
// corpus test), and FAILS — with a readable assertion diff — when the
// fingerprint guard is simulated away. If someone reverts the guard, this
// scenario is the tripwire.
func TestStaleSurveyScenarioCatchesRevertedGuard(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "stale-survey-regression.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(context.Background(), sc, RunOptions{
		WrapRegistry: func(r feam.SiteRegistry) feam.SiteRegistry {
			return &unfingerprintedRegistry{SiteRegistry: r}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed {
		t.Fatal("scenario passed with the fingerprint guard disabled; the regression tripwire is dead")
	}
	var diffs []string
	for _, a := range res.Assertions {
		if !a.OK {
			diffs = append(diffs, a.Diff)
		}
	}
	all := strings.Join(diffs, "\n")
	// The stale cached survey answers ready=true after the downgrade; the
	// diff must say so and show the (stale) determinant trail.
	if !strings.Contains(all, "ready = true, want false") {
		t.Errorf("failure diff does not show the stale ready answer:\n%s", all)
	}
	if !strings.Contains(all, "determinant trail:") {
		t.Errorf("failure diff has no determinant trail:\n%s", all)
	}
}

// TestCrashRecoveryNoRediscovery re-checks the crash-recovery property in
// Go (beyond the YAML assertions): after a restart event, the survey is
// answered from the persistent store without a single discover span.
func TestCrashRecoveryNoRediscovery(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "crash-recovery.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(context.Background(), sc, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		for _, a := range res.Assertions {
			if !a.OK {
				t.Errorf("%s", a.Diff)
			}
		}
		t.Fatal("crash-recovery scenario failed")
	}
	reh, ok := res.Surveys["rehydrated"]
	if !ok {
		t.Fatal("no rehydrated survey in result")
	}
	if reh.Ready != res.Sites {
		t.Errorf("post-restart survey: %d ready of %d sites", reh.Ready, res.Sites)
	}
}

// TestRunDeterminism: two runs of the same scenario with the same seed
// produce identical survey outcomes — the property every assertion in the
// corpus leans on.
func TestRunDeterminism(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "fault-spike.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		sc, err := Load(data)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		res, err := Run(context.Background(), sc, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	for name, sa := range a.Surveys {
		sb, ok := b.Surveys[name]
		if !ok {
			t.Fatalf("second run lost survey %q", name)
		}
		if sa.Ready != sb.Ready || sa.NotReady != sb.NotReady || sa.Errors != sb.Errors || sa.First != sb.First {
			t.Errorf("survey %q diverged: %+v vs %+v", name, sa, sb)
		}
		for i := range sa.Assessments {
			x, y := sa.Assessments[i], sb.Assessments[i]
			if x.Site != y.Site || x.Ready != y.Ready || x.Error != y.Error {
				t.Errorf("survey %q assessment %d diverged: %+v vs %+v", name, i, x, y)
			}
		}
	}
}

// TestLoadErrors exercises the loader's semantic validation: each invalid
// document must be rejected with an error naming the actual problem.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		msg  string
	}{
		{
			"missing name",
			"binary:\n  plain: true\n",
			"scenario.name is required",
		},
		{
			"unknown top-level key",
			"name: x\nbinary:\n  plain: true\nasertions:\n  - type: summary\n",
			`unknown key "asertions"`,
		},
		{
			"unknown assertion key (typo guard)",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: survey\nassertions:\n  - type: summary\n    raedy_count: 1\n",
			`unknown key "raedy_count"`,
		},
		{
			"no binary mode",
			"name: x\n",
			"declare either plain",
		},
		{
			"both binary modes",
			"name: x\nbinary:\n  plain: true\n  workload: cg\n  source: india\n  stack: s\n",
			"mutually exclusive",
		},
		{
			"partial compile mode",
			"name: x\nbinary:\n  workload: cg\n",
			"workload, source, and stack together",
		},
		{
			"unknown action",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: explode\n",
			`unknown action "explode"`,
		},
		{
			"upgrade without version",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: upgrade_glibc\n",
			"version is required",
		},
		{
			"relative removal path",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: remove_library\n    path: libm.so\n",
			"absolute path",
		},
		{
			"fault rate out of range",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: fault_rate\n    rate: 1.5\n",
			"rate must be in (0, 1]",
		},
		{
			"outage without targets",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: outage\n",
			"requires explicit targets",
		},
		{
			"join unknown group",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: site_join\n    group: ghost\n",
			`unknown fleet group "ghost"`,
		},
		{
			"duplicate event name",
			"name: x\nbinary:\n  plain: true\nevents:\n  - name: e\n    action: survey\n  - name: e\n    action: survey\n",
			`duplicate event name "e"`,
		},
		{
			"assertion references non-survey event",
			"name: x\nbinary:\n  plain: true\nevents:\n  - name: boom\n    action: restart\n  - action: survey\nassertions:\n  - type: summary\n    survey: boom\n    ready_count: 1\n",
			"not a survey",
		},
		{
			"assertion without survey event",
			"name: x\nbinary:\n  plain: true\nassertions:\n  - type: summary\n    ready_count: 1\n",
			"no survey event",
		},
		{
			"prediction without site",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: survey\nassertions:\n  - type: prediction\n    ready: true\n",
			"need a site",
		},
		{
			"prediction checks nothing",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: survey\nassertions:\n  - type: prediction\n    site: s\n",
			"checks nothing",
		},
		{
			"spans without bounds",
			"name: x\nbinary:\n  plain: true\nassertions:\n  - type: spans\n    op: discover\n",
			"min and/or max",
		},
		{
			"unknown determinant",
			"name: x\nbinary:\n  plain: true\nevents:\n  - action: survey\nassertions:\n  - type: prediction\n    site: s\n    determinant: vibes\n    outcome: pass\n",
			`unknown determinant "vibes"`,
		},
		{
			"unknown ISA",
			"name: x\nbinary:\n  plain: true\nfleet:\n  groups:\n    - name: g\n      isa: [sparc64]\nevents:\n  - action: survey\n",
			`unknown ISA "sparc64"`,
		},
		{
			"stack without its compiler",
			"name: x\nbinary:\n  plain: true\nfleet:\n  groups:\n    - name: g\n      stacks: [openmpi-1.4/intel]\nevents:\n  - action: survey\n",
			"the group does not install",
		},
		{
			"fleet too large",
			"name: x\nbinary:\n  plain: true\nfleet:\n  groups:\n    - name: g\n      count: 100000\nevents:\n  - action: survey\n",
			"caps at",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Load succeeded, want error containing %q", tc.msg)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
}

// TestExpandFleetSweep pins the round-robin sweep semantics group
// expansion promises: list-valued fields rotate by site index.
func TestExpandFleetSweep(t *testing.T) {
	specs, err := ExpandFleet(FleetSpec{Groups: []FleetGroup{{
		Name: "g", Count: 5,
		ISA:   []string{"x86_64", "ppc64"},
		Glibc: []string{"2.3.4", "2.5", "2.12"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("expanded %d specs, want 5", len(specs))
	}
	wantISA := []string{"x86_64", "ppc64", "x86_64", "ppc64", "x86_64"}
	wantGlibc := []string{"2.3.4", "2.5", "2.12", "2.3.4", "2.5"}
	for i, s := range specs {
		if s.Name != "g-"+string(rune('0'+i)) {
			t.Errorf("specs[%d].Name = %q", i, s.Name)
		}
		if s.ISA != wantISA[i] {
			t.Errorf("specs[%d].ISA = %q, want %q", i, s.ISA, wantISA[i])
		}
		if got := s.Glibc.String(); got != wantGlibc[i] {
			t.Errorf("specs[%d].Glibc = %q, want %q", i, got, wantGlibc[i])
		}
	}
}

// TestExpandFleetCollisions: duplicate site names across base and groups
// are a build error, not a silent overwrite.
func TestExpandFleetCollisions(t *testing.T) {
	_, err := ExpandFleet(FleetSpec{
		Base:   FleetBaseTable2,
		Groups: []FleetGroup{{Name: "ranger", Count: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate site name") {
		t.Errorf("ExpandFleet = %v, want duplicate-site error", err)
	}
}

// TestRestartsDoNotMultiplyCounters: the runner rebuilds its engine over
// one tracer and one metrics registry on every restart event. The
// registry sink must stay attached once, so the span-derived counters
// equal the exact span counts however many incarnations the run had.
func TestRestartsDoNotMultiplyCounters(t *testing.T) {
	const src = `
name: restart-counters
seed: 3
fleet:
  base: table2
binary:
  plain: true
events:
  - name: s0
    at: 0s
    action: survey
  - name: r1
    at: 1m
    action: restart
  - name: s1
    at: 2m
    action: survey
  - name: r2
    at: 3m
    action: restart
  - name: s2
    at: 4m
    action: survey
  - name: r3
    at: 5m
    action: restart
  - name: s3
    at: 6m
    action: survey
assertions:
  - type: summary
    survey: s3
    error_count: 0
`
	sc, err := Load([]byte(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(context.Background(), sc, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed: %+v", res.Assertions)
	}
	spans := res.Spans["evaluate"]
	if spans < 4*5 {
		t.Fatalf("evaluate spans = %d, want at least one per site per survey (20)", spans)
	}
	if got := res.Metrics["evaluations"]; got != spans {
		t.Errorf("evaluations counter = %d, evaluate spans = %d: spans counted once per engine incarnation", got, spans)
	}
}
