package main

import (
	"context"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"feam/internal/elfimg"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/scenario"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/vfs"
	"feam/internal/workload"
)

// fleet-churn: a seeded timeline of site-admin events on the isa-mix
// fleet, each followed by a full-fleet RankSitesParallel of a compiled
// Open MPI binary with the ABI determinant on and probes through
// experiment.SimProbeRunner. The event runs off the clock; one op is the
// fresh ranking after it. The oracle: the warm ranking equals a cold
// engine's ranking of the same fleet state.
//
// The timeline is a sequence of cycles. Each cycle holds ten events in a
// seeded order — four do/undo pairs (one-site C-library upgrade and its
// revert, a fleet-wide libc banner rollout and its rollback, removing a
// library and reinstalling it, stripping an export and restoring the
// library) plus a transient-only probe fault window and an engine restart
// over the persisted store — so every cycle ends with the fleet as it
// started.

// churnCode is the workload every ranking assesses: the paper's flagship
// NPB kernel.
const churnCode = "cg"

// churnCheckEvery sets how often the cold-engine oracle runs: after every
// event of the first cycle and after every churnCheckEvery-th op later.
const churnCheckEvery = 5

type churnKind int

const (
	evUpgrade churnKind = iota
	evRevert
	evRollout
	evRollback
	evRemove
	evReinstall
	evStrip
	evRestore
	evFault
	evRestart
	churnKinds
)

var churnKindNames = [...]string{
	"upgrade_clib", "revert_clib", "banner_rollout", "banner_rollback",
	"remove_library", "reinstall_library", "strip_export", "restore_export",
	"fault_window", "engine_restart",
}

func (k churnKind) String() string { return churnKindNames[k] }

// undoOf maps a do-event to its undo (or -1).
func undoOf(k churnKind) churnKind {
	switch k {
	case evUpgrade, evRollout, evRemove, evStrip:
		return k + 1
	}
	return -1
}

// churnCycle draws one cycle's event order: a seeded permutation of the
// ten kinds with every undo moved after its do.
func churnCycle(rng *rand.Rand) []churnKind {
	order := make([]churnKind, churnKinds)
	for i, j := range rng.Perm(int(churnKinds)) {
		order[i] = churnKind(j)
	}
	pos := map[churnKind]int{}
	for i, k := range order {
		pos[k] = i
	}
	for _, do := range []churnKind{evUpgrade, evRollout, evRemove, evStrip} {
		undo := undoOf(do)
		if pos[undo] < pos[do] {
			order[pos[do]], order[pos[undo]] = undo, do
			pos[do], pos[undo] = pos[undo], pos[do]
		}
	}
	return order
}

// churnTargets are the seeded sites and objects a run's events touch.
type churnTargets struct {
	upgradeSite string
	removeSite  string
	removeLib   string // soname of the library removed
	stripSite   string
	stripLib    string // soname of the library stripped
	stripSym    string
}

// churnTimeline draws the first cycles of a seed's event timeline, as Op
// draws them.
func churnTimeline(seed int64, cycles int) []churnKind {
	rng := rand.New(rand.NewSource(seed))
	var out []churnKind
	for i := 0; i < cycles; i++ {
		out = append(out, churnCycle(rng)...)
	}
	return out
}

var fleetChurn = Workload{
	Prepare: func(_ context.Context, p Params) (any, error) {
		spec, err := loadFleet(p)
		if err != nil {
			return nil, err
		}
		return spec, nil
	},
	Setup: func(ctx context.Context, p Params, prepared any) (Instance, error) {
		return newChurn(ctx, p, prepared.(scenario.FleetSpec))
	},
}

type churnInstance struct {
	p     Params
	tb    *testbed.Testbed
	sites []*sitemodel.Site
	art   *toolchain.Artifact
	desc  *feam.BinaryDescription
	// Every engine incarnation gets its own tracer and metrics registry:
	// feam.New registers a registry sink on the tracer it is given, so a
	// tracer shared across restarts would count every span once per
	// incarnation.
	observed []Observed
	sink     obs.Sink
	state    *vfs.FS
	eng      *feam.Engine
	runner   *experiment.SimProbeRunner
	targets  churnTargets
	workers  int

	rng      *rand.Rand
	cycle    []churnKind
	ops      int
	faulty   bool // the next ranking runs inside a fault window
	stash    map[string]string
	checks   int
	checks0  int
	perEvent map[churnKind][]time.Duration
	mu       sync.Mutex
}

func newChurn(ctx context.Context, p Params, spec scenario.FleetSpec) (*churnInstance, error) {
	tb, err := scenario.BuildFleet(spec)
	if err != nil {
		return nil, err
	}
	c := &churnInstance{
		p: p, tb: tb, sites: tb.Sites,
		state:   vfs.New(),
		workers: fanout(), stash: map[string]string{},
		rng:      rand.New(rand.NewSource(p.Seed)),
		perEvent: map[churnKind][]time.Duration{},
	}
	sim := execsim.NewSimulator(p.Seed)
	sim.TransientRate = 0 // injected faults are the only flakiness
	c.runner = experiment.NewSimProbeRunner(sim)

	// The binary is built at the first x86_64 site with its Open MPI stack.
	var src *sitemodel.Site
	var ready []*sitemodel.Site
	for _, s := range tb.Sites {
		if tb.Specs[s.Name].ISA == "x86_64" {
			ready = append(ready, s)
		}
	}
	if len(ready) < 3 || len(ready[0].Stacks) == 0 {
		return nil, fmt.Errorf("fleet needs three x86_64 sites with a stack")
	}
	src = ready[0]
	c.art, err = toolchain.Compile(workload.Find(churnCode), src.Stacks[0], src)
	if err != nil {
		return nil, err
	}
	if err := c.newEngine(); err != nil {
		return nil, err
	}
	if c.desc, err = c.eng.Describe(ctx, c.art.Bytes, c.art.Name); err != nil {
		return nil, err
	}
	if err := c.pickTargets(ready); err != nil {
		return nil, err
	}
	p.logf("fleet-churn targets: %+v", c.targets)
	return c, nil
}

// pickTargets draws the event targets: sites among the x86_64 half (where
// the binary gets far enough up the ladder for the change to matter) and
// the MPI library and imported symbol the removal and strip events hit.
func (c *churnInstance) pickTargets(ready []*sitemodel.Site) error {
	rng := rand.New(rand.NewSource(c.p.Seed ^ 0x7a5c))
	perm := rng.Perm(len(ready))
	c.targets.upgradeSite = c.sites[rng.Intn(len(c.sites))].Name
	c.targets.removeSite = ready[perm[0]].Name
	c.targets.stripSite = ready[perm[1]].Name

	f, err := elfimg.Parse(c.art.Bytes)
	if err != nil {
		return err
	}
	site := c.tb.ByName[c.targets.removeSite]
	libDir := site.Stacks[0].Prefix + "/lib"
	var libs []string
	for _, n := range f.Needed {
		if site.FS().Exists(libDir + "/" + n) {
			libs = append(libs, n)
		}
	}
	if len(libs) == 0 {
		return fmt.Errorf("binary %s needs no library of %s", c.art.Name, libDir)
	}
	sort.Strings(libs)
	c.targets.removeLib = libs[rng.Intn(len(libs))]

	// The stripped symbol is a seeded MPI entry point the binary imports,
	// taken out of whichever stack library exports it at the strip site.
	var syms []string
	for _, imp := range f.Imports {
		if strings.HasPrefix(imp.Name, "MPI_") {
			syms = append(syms, imp.Name)
		}
	}
	sort.Strings(syms)
	strip := c.tb.ByName[c.targets.stripSite]
	stripDir := strip.Stacks[0].Prefix + "/lib/"
	for _, i := range rng.Perm(len(syms)) {
		for _, lib := range libs {
			data, err := strip.FS().ReadFile(stripDir + lib)
			if err != nil {
				continue
			}
			lf, err := elfimg.Parse(data)
			if err != nil {
				return err
			}
			for _, ex := range lf.Exports {
				if ex.Name == syms[i] {
					c.targets.stripLib, c.targets.stripSym = lib, syms[i]
					return nil
				}
			}
		}
	}
	return fmt.Errorf("no stack library at %s exports an MPI symbol %s imports", strip.Name, c.art.Name)
}

// newEngine builds a fresh engine over a new registry and the persisted
// store — the start of the process, and every restart event.
func (c *churnInstance) newEngine() error {
	// A small ring: nothing reads it, and every incarnation's tracer stays
	// reachable through c.observed.
	tracer, metrics := obs.NewTracer(64), obs.NewRegistry()
	if c.sink != nil {
		tracer.AddSink(c.sink)
	}
	st, err := store.Open(c.state, "/state", store.WithMetrics(metrics), store.WithTracer(tracer))
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.observed = append(c.observed, Observed{Tracer: tracer, Metrics: metrics})
	c.mu.Unlock()
	c.eng = feam.New(
		feam.WithTracer(tracer), feam.WithMetrics(metrics),
		feam.WithRegistry(registry.New(registry.WithMetrics(metrics))),
		feam.WithStore(st), feam.WithABICheck(true), feam.WithWorkers(c.workers),
	)
	return nil
}

func (c *churnInstance) Clients() int { return 1 }

// Warmup ranks the fleet cold and then runs one whole cycle, so every
// event kind has run once and the fleet is back to its starting state.
func (c *churnInstance) Warmup(ctx context.Context) error {
	if _, err := c.rank(ctx, c.eng, c.runner); err != nil {
		return err
	}
	for i := 0; i < int(churnKinds); i++ {
		if r := c.Op(ctx, 0); !r.OK {
			return fmt.Errorf("warm-up: %s", r.Detail)
		}
	}
	c.ResetLayers()
	return nil
}

// Op applies the next event off the clock, then ranks the whole fleet on
// the clock, and checks the ranking against a cold engine's off the clock
// (see offClock).
func (c *churnInstance) Op(ctx context.Context, _ int) OpResult {
	if len(c.cycle) == 0 {
		c.cycle = churnCycle(c.rng)
	}
	kind := c.cycle[0]
	c.cycle = c.cycle[1:]
	if err := c.apply(ctx, kind); err != nil {
		return OpResult{Detail: fmt.Sprintf("event %s: %v", kind, err)}
	}
	var runner feam.ProgramRunner = c.runner
	if c.faulty {
		runner = &fault.FaultyRunner{Inner: c.runner, Inj: &alternating{seen: map[string]int{}}}
		c.faulty = false
	}
	t0 := time.Now()
	warm, err := c.rank(ctx, c.eng, runner)
	elapsed := time.Since(t0)
	c.mu.Lock()
	c.perEvent[kind] = append(c.perEvent[kind], elapsed)
	c.mu.Unlock()
	c.ops++
	if err != nil {
		return OpResult{Elapsed: elapsed, Detail: fmt.Sprintf("after %s: %v", kind, err)}
	}
	if c.ops <= int(churnKinds) || c.ops%churnCheckEvery == 0 {
		c.checks++
		var detail string
		offClock(func() { detail = c.checkCold(ctx, warm) })
		if detail != "" {
			return OpResult{Elapsed: elapsed, Detail: fmt.Sprintf("after %s: %s", kind, detail)}
		}
	}
	return OpResult{Elapsed: elapsed, OK: true}
}

// checkCold is fleet-churn's oracle: a cold engine ranks the same fleet
// state, and the warm ranking must equal it.
func (c *churnInstance) checkCold(ctx context.Context, warm []feam.SiteAssessment) string {
	cold := feam.New(feam.WithABICheck(true), feam.WithWorkers(c.workers))
	want, err := c.rank(ctx, cold, c.runner)
	if err != nil {
		return fmt.Sprintf("cold ranking: %v", err)
	}
	if diff := diffRankings(warm, want); diff != "" {
		return "warm ranking differs from cold: " + diff
	}
	return ""
}

// rank runs one full-fleet ranking; a site whose assessment failed is an
// error, since no event in the timeline makes a site unreachable.
func (c *churnInstance) rank(ctx context.Context, eng *feam.Engine, runner feam.ProgramRunner) ([]feam.SiteAssessment, error) {
	out := eng.RankSitesParallel(ctx, c.desc, c.art.Bytes, c.sites, feam.EvalOptions{Runner: runner}, c.workers)
	for _, a := range out {
		if a.Err != nil {
			return out, fmt.Errorf("site %s: %w", a.Site, a.Err)
		}
	}
	return out, nil
}

// diffRankings compares two rankings site by site: order, readiness and
// every determinant's outcome.
func diffRankings(got, want []feam.SiteAssessment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d sites ranked, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Site != w.Site {
			return fmt.Sprintf("rank %d is %s, want %s", i, g.Site, w.Site)
		}
		if (g.Prediction == nil) != (w.Prediction == nil) {
			return fmt.Sprintf("%s: prediction presence differs", g.Site)
		}
		if g.Prediction == nil {
			continue
		}
		if g.Prediction.Ready != w.Prediction.Ready {
			return fmt.Sprintf("%s: ready=%v, want ready=%v", g.Site, g.Prediction.Ready, w.Prediction.Ready)
		}
		for _, d := range feam.Determinants() {
			if got, want := g.Prediction.Determinants[d].Outcome, w.Prediction.Determinants[d].Outcome; got != want {
				return fmt.Sprintf("%s: determinant %s is %s, want %s", g.Site, d, got, want)
			}
		}
	}
	return ""
}

const stashDir = "/var/lib/perfbench-stash"

// apply performs one site-admin event.
func (c *churnInstance) apply(ctx context.Context, kind churnKind) error {
	t := c.targets
	switch kind {
	case evUpgrade, evRevert:
		site := c.tb.ByName[t.upgradeSite]
		if kind == evUpgrade {
			c.stash["glibc"] = site.Glibc.String()
			to := "2.12"
			if site.Glibc.String() == "2.12" {
				to = "2.5"
			}
			return site.UpgradeCLibrary(libver.MustParseVersion(to))
		}
		return site.UpgradeCLibrary(libver.MustParseVersion(c.stash["glibc"]))
	case evRollout, evRollback:
		// The rollout makes every libc announce 2.12; the rollback puts
		// back the banner of each site's installed release.
		for _, site := range c.sites {
			banner := sitemodel.GlibcBannerFor(libver.MustParseVersion("2.12"))
			if kind == evRollback {
				banner = sitemodel.GlibcBannerFor(site.Glibc)
			}
			if err := site.FS().SetAttr(site.SystemLibDir()+"/libc.so.6", sitemodel.AttrExecOutput, banner+"\n"); err != nil {
				return err
			}
		}
		return nil
	case evRemove, evReinstall:
		site := c.tb.ByName[t.removeSite]
		if kind == evRemove {
			p, err := site.FS().ResolvePath(site.Stacks[0].Prefix + "/lib/" + t.removeLib)
			if err != nil {
				return err
			}
			c.stash["remove"] = p
			return site.FS().Rename(p, stashDir+"/removed/"+path.Base(p))
		}
		p := c.stash["remove"]
		return site.FS().Rename(stashDir+"/removed/"+path.Base(p), p)
	case evStrip, evRestore:
		site := c.tb.ByName[t.stripSite]
		fs := site.FS()
		if kind == evStrip {
			p, err := fs.ResolvePath(site.Stacks[0].Prefix + "/lib/" + t.stripLib)
			if err != nil {
				return err
			}
			c.stash["strip"] = p
			orig := stashDir + "/stripped/" + path.Base(p)
			if err := fs.Rename(p, orig); err != nil {
				return err
			}
			if err := fs.CopyFile(orig, p); err != nil {
				return err
			}
			return site.StripExport(p, t.stripSym)
		}
		p := c.stash["strip"]
		if err := fs.Remove(p); err != nil {
			return err
		}
		return fs.Rename(stashDir+"/stripped/"+path.Base(p), p)
	case evFault:
		c.faulty = true
		return nil
	case evRestart:
		return c.newEngine()
	}
	return fmt.Errorf("unknown event %d", kind)
}

// alternating fails every other probe of each site/stack transiently, so
// the engine's first retry always succeeds.
type alternating struct {
	mu   sync.Mutex
	seen map[string]int
}

func (a *alternating) Fail(_ context.Context, op, key string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen[key]++
	if a.seen[key]%2 == 1 {
		return fault.New(fault.Transient, op, key)
	}
	return nil
}

func (c *churnInstance) Observed() []Observed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Observed(nil), c.observed...)
}

func (c *churnInstance) AttachSink(sink obs.Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = sink
	c.observed[len(c.observed)-1].Tracer.AddSink(sink)
}

// Layers reports the ranking latency of each event kind.
func (c *churnInstance) Layers(int) map[string]Metric {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := map[string]Metric{"churn.oracle_checks": {float64(c.checks - c.checks0), "count"}}
	for k := churnKind(0); k < churnKinds; k++ {
		m["churn.rank_ms."+k.String()] = Metric{quantile(c.perEvent[k], 0.5), "ms"}
	}
	return m
}

func (c *churnInstance) ResetLayers() {
	c.mu.Lock()
	c.perEvent = map[churnKind][]time.Duration{}
	c.checks0 = c.checks
	c.mu.Unlock()
}

func (c *churnInstance) Close() {}
