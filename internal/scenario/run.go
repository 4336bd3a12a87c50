// run.go executes a loaded scenario: build the fleet, walk the event
// timeline in virtual-time order, collect survey results and span/metric
// counts, and evaluate the scenario's assertions into a JSON-exportable
// Result. Everything scripted is deterministic for a given seed — fault
// policies are seeded per site, the execution simulator's own flakiness is
// disabled (injected faults are the only flakiness), and survey ordering
// is the engine's stable ranking.
package scenario

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"feam/internal/elfimg"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/vfs"
	"feam/internal/workload"
)

// RunOptions configures one scenario run.
type RunOptions struct {
	// Log receives human-readable progress lines (nil = silent).
	Log io.Writer
	// WrapRegistry, when set, wraps the engine's site-registry layer at
	// every engine construction (including restarts). It is a test seam:
	// the stale-survey regression test wraps the registry with one that
	// ignores survey fingerprints, simulating a revert of the
	// fingerprint-gated caching guard, and asserts the paired scenario
	// fails.
	WrapRegistry func(feam.SiteRegistry) feam.SiteRegistry
}

// Result is the JSON-exportable outcome of one scenario run.
type Result struct {
	Scenario    string         `json:"scenario"`
	Description string         `json:"description,omitempty"`
	Seed        int64          `json:"seed"`
	Sites       int            `json:"sites"`
	Events      []EventOutcome `json:"events"`
	// Surveys holds one entry per survey event, keyed by event name.
	Surveys    map[string]*SurveyResult `json:"surveys,omitempty"`
	Assertions []AssertionResult        `json:"assertions"`
	Passed     bool                     `json:"passed"`
	Failed     int                      `json:"failed_assertions"`
	// Metrics is the final counter snapshot of the run's metrics registry.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Spans counts the run's ended spans per operation, across engine
	// restarts (the exact sink behind the spans assertions).
	Spans map[string]int64 `json:"spans,omitempty"`
}

// EventOutcome records one executed timeline entry.
type EventOutcome struct {
	Name   string `json:"name"`
	Action string `json:"action"`
	At     string `json:"at"`
	// Sites is the fleet size after the event.
	Sites int    `json:"sites"`
	Error string `json:"error,omitempty"`
}

// SurveyResult summarizes one survey event.
type SurveyResult struct {
	Ready       int          `json:"ready"`
	NotReady    int          `json:"not_ready"`
	Errors      int          `json:"errors"`
	First       string       `json:"first,omitempty"`
	Assessments []Assessment `json:"assessments"`
}

// Assessment is the JSON form of one site's survey entry.
type Assessment struct {
	Site  string `json:"site"`
	Ready bool   `json:"ready"`
	// Error is the degradation class: "site_unavailable", "probe_failed",
	// or "error" for anything else; empty for clean assessments.
	Error        string            `json:"error,omitempty"`
	ErrorDetail  string            `json:"error_detail,omitempty"`
	Determinants map[string]string `json:"determinants,omitempty"`
	Reasons      []string          `json:"reasons,omitempty"`
	Stack        string            `json:"stack,omitempty"`
	ResolvedLibs int               `json:"resolved_libs,omitempty"`
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Index       int    `json:"index"`
	Description string `json:"description"`
	OK          bool   `json:"ok"`
	// Diff is the human-readable explanation of a failed assertion.
	Diff string `json:"diff,omitempty"`
}

// opKey indexes span counts: per (operation, site), with site "" holding
// the operation's total across sites.
type opKey struct {
	op   string
	site string
}

// spanCounter is a tracer sink that counts ended spans exactly — the ring
// buffer behind Tracer.Snapshot is lossy on large fleets, so assertions
// over span counts need their own sink.
type spanCounter struct {
	mu     sync.Mutex
	counts map[opKey]int64
}

func newSpanCounter() *spanCounter { return &spanCounter{counts: map[opKey]int64{}} }

func (c *spanCounter) SpanStarted(*obs.Span)          {}
func (c *spanCounter) SpanEvent(*obs.Span, obs.Event) {}
func (c *spanCounter) SpanEnded(s *obs.Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[opKey{op: s.Op}]++
	if s.Site != "" {
		c.counts[opKey{op: s.Op, site: s.Site}]++
	}
}

// snapshot copies the current counts (the per-event marks).
func (c *spanCounter) snapshot() map[opKey]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[opKey]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// runner is the mutable state of one scenario execution.
type runner struct {
	sc   *Scenario
	opts RunOptions

	tb      *testbed.Testbed
	sites   []*sitemodel.Site // current fleet, survey order
	metrics *obs.Registry
	tracer  *obs.Tracer
	counts  *spanCounter
	stateFS *vfs.FS
	eng     *feam.Engine

	desc     *feam.BinaryDescription
	appBytes []byte
	bundle   *feam.Bundle
	probe    feam.ProgramRunner

	faults  map[string]*fault.Policy
	outages map[string]bool
	joined  map[string]int

	surveys     map[string][]feam.SiteAssessment
	surveyOrder []string
	marks       map[string]map[opKey]int64
}

// Run executes a loaded scenario and returns its result. An error means
// the run itself could not proceed (fleet build failure, broken binary
// spec, an event that cannot apply); failed assertions are reported in the
// Result, not as an error.
func Run(ctx context.Context, sc *Scenario, opts RunOptions) (*Result, error) {
	r := &runner{
		sc:      sc,
		opts:    opts,
		metrics: obs.NewRegistry(),
		tracer:  obs.NewTracer(0),
		counts:  newSpanCounter(),
		stateFS: vfs.New(),
		faults:  map[string]*fault.Policy{},
		outages: map[string]bool{},
		joined:  map[string]int{},
		surveys: map[string][]feam.SiteAssessment{},
		marks:   map[string]map[opKey]int64{},
	}
	r.tracer.AddSink(r.counts)

	res := &Result{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        sc.Seed,
		Surveys:     map[string]*SurveyResult{},
	}

	if err := r.newEngine(); err != nil {
		return nil, err
	}
	tb, err := BuildFleet(sc.Fleet)
	if err != nil {
		return nil, err
	}
	r.tb = tb
	r.sites = append(r.sites, tb.Sites...)
	res.Sites = len(r.sites)
	r.logf("fleet: %d sites", len(r.sites))

	if err := r.prepareBinary(ctx); err != nil {
		return nil, err
	}
	r.marks["start"] = r.counts.snapshot()

	events := make([]Event, len(sc.Events))
	copy(events, sc.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		evErr := r.execute(ctx, ev)
		outcome := EventOutcome{
			Name: ev.Name, Action: ev.Action,
			At: ev.At.String(), Sites: len(r.sites),
		}
		if evErr != nil {
			outcome.Error = evErr.Error()
		}
		res.Events = append(res.Events, outcome)
		r.marks[ev.Name] = r.counts.snapshot()
		if evErr != nil {
			return res, fmt.Errorf("scenario %s: event %s (%s): %w", sc.Name, ev.Name, ev.Action, evErr)
		}
	}

	for name, assessments := range r.surveys {
		res.Surveys[name] = summarizeSurvey(assessments)
	}
	res.Metrics = r.metrics.Snapshot().Counters
	res.Spans = map[string]int64{}
	for k, n := range r.counts.snapshot() {
		if k.site == "" {
			res.Spans[k.op] = n
		}
	}

	res.Passed = true
	for i, a := range sc.Assertions {
		ar := r.evaluate(i, a)
		res.Assertions = append(res.Assertions, ar)
		if !ar.OK {
			res.Passed = false
			res.Failed++
			r.logf("FAIL %s", ar.Diff)
		}
	}
	return res, nil
}

func (r *runner) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, format+"\n", args...)
	}
}

// newEngine builds a fresh stateless engine over a new registry shard set
// and the persistent store — called at start and again on every restart
// event, which is exactly what a process crash-and-rehydrate does. The
// tracer, metrics registry, and state filesystem survive across restarts
// (they model the observer, not the process).
func (r *runner) newEngine() error {
	st, err := store.Open(r.stateFS, "/state",
		store.WithMetrics(r.metrics), store.WithTracer(r.tracer))
	if err != nil {
		return fmt.Errorf("scenario: opening store: %w", err)
	}
	var sites feam.SiteRegistry = registry.New(registry.WithMetrics(r.metrics))
	if r.opts.WrapRegistry != nil {
		sites = r.opts.WrapRegistry(sites)
	}
	r.eng = feam.New(
		feam.WithTracer(r.tracer),
		feam.WithMetrics(r.metrics),
		feam.WithRegistry(sites),
		feam.WithStore(st),
	)
	return nil
}

// prepareBinary materializes the scenario's application: a synthetic plain
// executable, or a workload compiled at a fleet site (with a source-phase
// bundle when any event enables the resolution model).
func (r *runner) prepareBinary(ctx context.Context) error {
	b := r.sc.Binary
	if b.Plain {
		glibc := b.Glibc
		if glibc == "" {
			glibc = "2.3.4"
		}
		name := b.Name
		if name == "" {
			name = "app"
		}
		verNeeds := []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_" + glibc}},
		}
		var imports []elfimg.ImportedSymbol
		for _, imp := range b.Imports {
			name, version, library, err := parseImport(imp)
			if err != nil {
				return fmt.Errorf("scenario: binary.imports: %w", err)
			}
			if version != "" && library == "" {
				library = "libc.so.6"
			}
			imports = append(imports, elfimg.ImportedSymbol{Name: name, Version: version, Library: library})
			if version != "" {
				verNeeds = addVerNeed(verNeeds, library, version)
			}
		}
		img := elfimg.MustBuild(elfimg.Spec{
			Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
			Interp:   "/lib64/ld-linux-x86-64.so.2",
			Needed:   append([]string{"libc.so.6"}, b.Needs...),
			VerNeeds: verNeeds,
			Imports:  imports,
		})
		desc, err := r.eng.Describe(ctx, img, name)
		if err != nil {
			return fmt.Errorf("scenario: describing plain binary: %w", err)
		}
		r.desc, r.appBytes = desc, img
		return nil
	}

	src, ok := r.tb.ByName[b.Source]
	if !ok {
		return fmt.Errorf("scenario: binary source site %q is not in the fleet", b.Source)
	}
	rec := src.FindStack(b.Stack)
	if rec == nil {
		return fmt.Errorf("scenario: no stack %q at source site %s", b.Stack, b.Source)
	}
	code := workload.Find(b.Workload)
	if code == nil {
		return fmt.Errorf("scenario: unknown workload %q", b.Workload)
	}
	art, err := toolchain.Compile(code, rec, src)
	if err != nil {
		return fmt.Errorf("scenario: compiling %s at %s: %w", b.Workload, b.Source, err)
	}
	binPath := "/home/user/" + art.Name
	if err := src.FS().WriteFile(binPath, art.Bytes); err != nil {
		return fmt.Errorf("scenario: installing binary at %s: %w", b.Source, err)
	}

	sim := execsim.NewSimulator(r.sc.Seed)
	sim.TransientRate = 0 // scripted faults are the only flakiness
	r.probe = &routedRunner{r: r, inner: &BatchRunner{Inner: experiment.NewSimProbeRunner(sim), TB: r.tb}}

	needBundle := false
	for _, ev := range r.sc.Events {
		if ev.Action == ActionSurvey && ev.Resolve {
			needBundle = true
		}
	}
	if needBundle {
		snap := src.SnapshotEnv()
		err := testbed.ActivateStack(src, b.Stack)
		if err == nil {
			cfg := &feam.Config{
				Phase: "source", BinaryPath: binPath,
				SerialScript:   "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=1\n#PBS -l walltime=00:10:00\n%CMD%\n",
				ParallelScript: "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=4\n#PBS -l walltime=00:15:00\n%CMD%\n",
			}
			r.bundle, _, err = r.eng.RunSourcePhase(ctx, cfg, src, &BatchRunner{Inner: experiment.NewSimRunner(sim), TB: r.tb})
		}
		src.RestoreEnv(snap)
		if err != nil {
			return fmt.Errorf("scenario: source phase at %s: %w", b.Source, err)
		}
	}

	name := b.Name
	if name == "" {
		name = art.Name
	}
	desc, err := r.eng.Describe(ctx, art.Bytes, name)
	if err != nil {
		return fmt.Errorf("scenario: describing %s: %w", art.Name, err)
	}
	r.desc, r.appBytes = desc, art.Bytes
	return nil
}

// routedRunner applies the per-site fault policies to probe executions;
// site filesystems get theirs through vfs op hooks, probes get theirs
// here.
type routedRunner struct {
	r     *runner
	inner feam.ProgramRunner
}

func (rr *routedRunner) RunProgram(ctx context.Context, art *toolchain.Artifact, site *sitemodel.Site, stackKey string, extraLibDirs []string) (bool, string) {
	if p := rr.r.faults[site.Name]; p != nil {
		f := &fault.FaultyRunner{Inner: rr.inner, Inj: p}
		return f.RunProgram(ctx, art, site, stackKey, extraLibDirs)
	}
	return rr.inner.RunProgram(ctx, art, site, stackKey, extraLibDirs)
}

// BeginProbeBatch implements fault.BatchProbeRunner, threading the per-site
// fault policy into the opened session (the injector fires per probe even
// though the session setup is shared).
func (rr *routedRunner) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) fault.ProbeBatch {
	if p := rr.r.faults[site.Name]; p != nil {
		f := &fault.FaultyRunner{Inner: rr.inner, Inj: p}
		return fault.OpenBatch(ctx, f, site, stackKey)
	}
	return fault.OpenBatch(ctx, rr.inner, site, stackKey)
}

// resolveTargets maps event target names to current fleet sites: exact
// site names, or group names selecting every current member of the group.
// An empty target list selects the whole fleet.
func (r *runner) resolveTargets(targets []string) ([]*sitemodel.Site, error) {
	if len(targets) == 0 {
		out := make([]*sitemodel.Site, len(r.sites))
		copy(out, r.sites)
		return out, nil
	}
	var out []*sitemodel.Site
	seen := map[string]bool{}
	add := func(s *sitemodel.Site) {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	for _, t := range targets {
		if s, ok := r.tb.ByName[t]; ok && r.inFleet(t) {
			add(s)
			continue
		}
		matched := false
		for _, s := range r.sites {
			if len(s.Name) > len(t) && s.Name[:len(t)] == t && s.Name[len(t)] == '-' {
				add(s)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("target %q matches no site or group in the current fleet", t)
		}
	}
	return out, nil
}

func (r *runner) inFleet(name string) bool {
	for _, s := range r.sites {
		if s.Name == name {
			return true
		}
	}
	return false
}

// siteSeed derives a per-site fault seed, so injection at one site is
// independent of operation interleaving at others (parallel surveys stay
// deterministic).
func siteSeed(base int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return base ^ int64(h.Sum64())
}

// execute applies one timeline event.
func (r *runner) execute(ctx context.Context, ev Event) error {
	r.logf("[%s] %s %s", ev.At, ev.Action, ev.Name)
	switch ev.Action {
	case ActionSurvey:
		opts := feam.EvalOptions{Runner: r.probe}
		if ev.Abi {
			// The five-determinant ladder with agreement mode on: every
			// assessment also runs the independent soname-closure checker
			// and feeds the abi_agree/abi_disagree counters.
			opts.Evaluators = feam.ABIEvaluators(true)
		}
		if ev.Resolve {
			if r.bundle == nil {
				return fmt.Errorf("resolve requested but the binary has no source-phase bundle (plain binaries cannot resolve)")
			}
			opts.Bundle = r.bundle
			opts.Resolve = true
		}
		assessments := r.eng.RankSites(ctx, r.desc, r.appBytes, r.currentSites(), opts)
		r.surveys[ev.Name] = assessments
		r.surveyOrder = append(r.surveyOrder, ev.Name)
		sum := summarizeSurvey(assessments)
		r.logf("  survey %s: %d ready, %d not ready, %d errors",
			ev.Name, sum.Ready, sum.NotReady, sum.Errors)
		return nil

	case ActionUpgradeGlibc:
		v, err := parseVersion(ev.Version)
		if err != nil {
			return err
		}
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			if err := s.UpgradeCLibrary(v); err != nil {
				return err
			}
			r.logf("  %s: C library now %s (fs generation %d)", s.Name, v, s.FS().Generation())
		}
		return nil

	case ActionRemoveLibrary:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			if err := removeMatching(s, ev.Path); err != nil {
				return err
			}
		}
		return nil

	case ActionFaultRate:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			p := &fault.Policy{
				Rate:              ev.Rate,
				TransientFraction: ev.Transient,
				Seed:              siteSeed(r.sc.Seed, s.Name),
				Ops:               ev.Ops,
			}
			r.faults[s.Name] = p
			s.FS().SetOpHook(fault.Hook(ctx, p))
		}
		return nil

	case ActionClearFaults:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			delete(r.faults, s.Name)
			if !r.outages[s.Name] {
				s.FS().SetOpHook(nil)
			}
		}
		return nil

	case ActionOutage:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			r.outages[s.Name] = true
			s.FS().SetOpHook(func(op, path string) error {
				return fault.New(fault.Permanent, op, path)
			})
			// Cached and persisted surveys would mask the outage — the
			// site's filesystem is never touched on a fingerprint hit.
			r.eng.InvalidateSite(s.Name)
		}
		return nil

	case ActionRestore:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			delete(r.outages, s.Name)
			if p := r.faults[s.Name]; p != nil {
				s.FS().SetOpHook(fault.Hook(ctx, p))
			} else {
				s.FS().SetOpHook(nil)
			}
		}
		return nil

	case ActionSiteJoin:
		var tmpl *FleetGroup
		for i := range r.sc.Fleet.Groups {
			if r.sc.Fleet.Groups[i].Name == ev.Group {
				tmpl = &r.sc.Fleet.Groups[i]
			}
		}
		if tmpl == nil {
			return fmt.Errorf("site_join names unknown group %q", ev.Group)
		}
		n := r.joined[ev.Group]
		r.joined[ev.Group] = n + 1
		name := fmt.Sprintf("%s-j%d", ev.Group, n)
		built, err := BuildGroupSite(*tmpl, name, tmpl.Count+n)
		if err != nil {
			return err
		}
		s := built.Sites[0]
		r.tb.Sites = append(r.tb.Sites, s)
		r.tb.ByName[s.Name] = s
		r.tb.Specs[s.Name] = built.Specs[s.Name]
		r.tb.Clusters[s.Name] = built.Clusters[s.Name]
		r.sites = append(r.sites, s)
		r.logf("  joined %s (fleet now %d sites)", s.Name, len(r.sites))
		return nil

	case ActionSiteLeave:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			r.removeSite(s.Name)
			r.eng.InvalidateSite(s.Name)
		}
		r.logf("  fleet now %d sites", len(r.sites))
		return nil

	case ActionRestart:
		r.logf("  restarting engine (fresh registry, rehydrating from store)")
		return r.newEngine()

	case ActionInvalidate:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			r.eng.InvalidateSite(s.Name)
		}
		return nil

	case ActionStripSymbol:
		sites, err := r.resolveTargets(ev.Targets)
		if err != nil {
			return err
		}
		for _, s := range sites {
			if err := s.StripExport(ev.Path, ev.Symbol); err != nil {
				return err
			}
			r.logf("  %s: stripped export %s from %s (fs generation %d)",
				s.Name, ev.Symbol, ev.Path, s.FS().Generation())
		}
		return nil
	}
	return fmt.Errorf("unknown action %q", ev.Action)
}

// removeMatching deletes the file at path, or every file matching it as a
// base-name glob when it contains wildcards.
func removeMatching(s *sitemodel.Site, p string) error {
	fs := s.FS()
	if !hasGlobMeta(p) {
		if err := fs.Remove(p); err != nil {
			return fmt.Errorf("removing %s at %s: %w", p, s.Name, err)
		}
		return nil
	}
	dir, base := splitPath(p)
	matches, err := fs.Glob(dir, base)
	if err != nil {
		return fmt.Errorf("globbing %s at %s: %w", p, s.Name, err)
	}
	if len(matches) == 0 {
		return fmt.Errorf("%s matches nothing at %s", p, s.Name)
	}
	for _, m := range matches {
		if err := fs.Remove(m); err != nil {
			return fmt.Errorf("removing %s at %s: %w", m, s.Name, err)
		}
	}
	return nil
}

// addVerNeed merges one version requirement into the verneed table,
// deduplicating files and versions.
func addVerNeed(vns []elfimg.VerNeed, file, version string) []elfimg.VerNeed {
	for i := range vns {
		if vns[i].File != file {
			continue
		}
		for _, v := range vns[i].Versions {
			if v == version {
				return vns
			}
		}
		vns[i].Versions = append(vns[i].Versions, version)
		return vns
	}
	return append(vns, elfimg.VerNeed{File: file, Versions: []string{version}})
}

func hasGlobMeta(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '*', '?', '[':
			return true
		}
	}
	return false
}

func splitPath(p string) (dir, base string) {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			if i == 0 {
				return "/", p[1:]
			}
			return p[:i], p[i+1:]
		}
	}
	return "/", p
}

func (r *runner) currentSites() []*sitemodel.Site {
	out := make([]*sitemodel.Site, len(r.sites))
	copy(out, r.sites)
	return out
}

func (r *runner) removeSite(name string) {
	for i, s := range r.sites {
		if s.Name == name {
			r.sites = append(r.sites[:i], r.sites[i+1:]...)
			break
		}
	}
	for i, s := range r.tb.Sites {
		if s.Name == name {
			r.tb.Sites = append(r.tb.Sites[:i], r.tb.Sites[i+1:]...)
			break
		}
	}
	delete(r.tb.ByName, name)
	delete(r.tb.Specs, name)
	delete(r.tb.Clusters, name)
}

// summarizeSurvey tallies one survey's assessments into the JSON form.
func summarizeSurvey(assessments []feam.SiteAssessment) *SurveyResult {
	sum := &SurveyResult{}
	for i, a := range assessments {
		aj := assessmentJSON(a)
		if i == 0 {
			sum.First = a.Site
		}
		switch {
		case a.Err != nil:
			sum.Errors++
		case a.Prediction != nil && a.Prediction.Ready:
			sum.Ready++
		default:
			sum.NotReady++
		}
		sum.Assessments = append(sum.Assessments, aj)
	}
	return sum
}

func assessmentJSON(a feam.SiteAssessment) Assessment {
	aj := Assessment{Site: a.Site}
	if a.Err != nil {
		aj.Error = errorClass(a.Err)
		aj.ErrorDetail = a.Err.Error()
	}
	if p := a.Prediction; p != nil {
		aj.Ready = p.Ready
		aj.Reasons = p.Reasons
		aj.Stack = p.StackKey()
		aj.ResolvedLibs = len(p.ResolvedLibs)
		aj.Determinants = map[string]string{}
		for _, d := range feam.Determinants() {
			res := p.Determinants[d]
			text := res.Outcome.String()
			if res.Detail != "" {
				text += " — " + res.Detail
			}
			aj.Determinants[determinantKey(d)] = text
		}
	}
	return aj
}

// sinceCounts returns span counts relative to a mark ("" or "start" =
// whole run).
func (r *runner) sinceCounts(since string) (map[opKey]int64, error) {
	now := r.counts.snapshot()
	if since == "" {
		return now, nil
	}
	mark, ok := r.marks[since]
	if !ok {
		return nil, fmt.Errorf("no mark for event %q", since)
	}
	out := make(map[opKey]int64, len(now))
	for k, v := range now {
		out[k] = v - mark[k]
	}
	return out, nil
}
