package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

// migration-matrix: the paper's Tables III/IV pipeline on the five-site
// Table II testbed over a seeded subset of the compiled test set. One op
// is one migration pair, run the way a user migrating that binary would:
// the source phase at the build site (bundle), the basic and the extended
// target phase at the target with probes submitted through the site's
// batch system (transactional staging of resolved libraries), and the
// ground-truth executions before and after resolution. The oracle: every
// pair yields both predictions, and all four outcomes equal the golden
// table recorded from experiment.RunWithEngine, so the subset's accuracy
// equals the golden accuracy.

// matrixSimSeed seeds the execution simulator for the golden table and
// every run; the benchmark seed picks the subset and the order.
const matrixSimSeed = 2013

// matrixTinyBinaries is the subset size of --size tiny runs.
const matrixTinyBinaries = 2

const goldenPath = "perfbench/testdata/matrix_golden.json"

// goldenPair is one migration pair's recorded outcome.
type goldenPair struct {
	Binary   string `json:"binary"`
	Target   string `json:"target"`
	Basic    bool   `json:"basic_ready"`
	Extended bool   `json:"extended_ready"`
	Before   bool   `json:"ran_before"`
	After    bool   `json:"ran_after"`
}

func (g goldenPair) key() string { return g.Binary + "@" + g.Target }

// goldenBinary identifies one test-set binary by how it is built.
type goldenBinary struct {
	Name  string `json:"name"`
	Code  string `json:"code"`
	Suite string `json:"suite"`
	Site  string `json:"site"`
	Stack string `json:"stack"`
}

type golden struct {
	SimSeed  int64          `json:"sim_seed"`
	Binaries []goldenBinary `json:"binaries"`
	Pairs    []goldenPair   `json:"pairs"`
}

func loadGolden(root string) (*golden, error) {
	//lint:ignore vfsonly the golden table is a file of the checkout, not a site filesystem
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if g.SimSeed != matrixSimSeed || len(g.Binaries) == 0 || len(g.Pairs) == 0 {
		return nil, fmt.Errorf("%s: sim seed %d, %d binaries, %d pairs", goldenPath, g.SimSeed, len(g.Binaries), len(g.Pairs))
	}
	return &g, nil
}

type matrixInputs struct {
	bins []goldenBinary
	want map[string]goldenPair // binary@target → golden outcome
	seed int64                 // also orders the pairs
}

// matrixSubset draws the seeded subset: one binary of every (code, build
// site) combination the test set has, the seed picking its stack, so
// every seed migrates the same mix of codes from the same sites. limit > 0
// keeps only that many of them (tiny runs).
func matrixSubset(g *golden, seed int64, limit int) []goldenBinary {
	rng := rand.New(rand.NewSource(seed))
	strata := map[string][]goldenBinary{}
	var keys []string
	for _, b := range g.Binaries {
		k := b.Code + "@" + b.Site
		if len(strata[k]) == 0 {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], b)
	}
	sort.Strings(keys)
	var out []goldenBinary
	for _, k := range keys {
		list := strata[k]
		out = append(out, list[rng.Intn(len(list))])
	}
	if limit > 0 && limit < len(out) {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:limit]
	}
	return out
}

var migrationMatrix = Workload{
	Prepare: func(_ context.Context, p Params) (any, error) {
		g, err := loadGolden(p.Root)
		if err != nil {
			return nil, err
		}
		n := 0
		if p.Tiny {
			n = matrixTinyBinaries
		}
		in := &matrixInputs{bins: matrixSubset(g, p.Seed, n), want: map[string]goldenPair{}, seed: p.Seed}
		for _, gp := range g.Pairs {
			in.want[gp.key()] = gp
		}
		return in, nil
	},
	Setup: func(ctx context.Context, p Params, prepared any) (Instance, error) {
		return newMatrix(ctx, prepared.(*matrixInputs))
	},
}

type matrixInstance struct {
	in    *matrixInputs
	tb    *testbed.Testbed
	eng   *feam.Engine
	sim   *execsim.Simulator
	pairs []matrixPair
	next  []int

	mu        sync.Mutex
	source    time.Duration // FEAM's reported phase times
	target    time.Duration
	cpuHours0 float64
	agree     map[string][2]bool // pair → basic/extended agree with ground truth
}

// matrixPair is one migration pair as input to experiment.RunWithEngine:
// the binary alone in a test set, and a view of the testbed whose site
// list holds only the target, so that one run migrates exactly this pair.
// The view shares the testbed's sites, specs and batch systems.
type matrixPair struct {
	key string // binary@target
	set *experiment.TestSet
	tb  *testbed.Testbed
}

// newMatrix builds the testbed and compiles the subset at its build sites.
func newMatrix(_ context.Context, in *matrixInputs) (*matrixInstance, error) {
	tb, err := testbed.Build()
	if err != nil {
		return nil, err
	}
	ts := &experiment.TestSet{}
	for _, gb := range in.bins {
		site := tb.ByName[gb.Site]
		code := workload.Find(gb.Code)
		if site == nil || code == nil || site.FindStack(gb.Stack) == nil {
			return nil, fmt.Errorf("golden binary %s names an unknown site, code or stack", gb.Name)
		}
		rec := site.FindStack(gb.Stack)
		art, err := toolchain.Compile(code, rec, site)
		if err != nil {
			return nil, err
		}
		if art.Name != gb.Name {
			return nil, fmt.Errorf("compiled %s, golden table says %s", art.Name, gb.Name)
		}
		bin := &experiment.TestBinary{
			Code: code, BuildSite: site.Name, StackKey: rec.Key, Impl: rec.Impl,
			Artifact: art, Path: "/home/user/apps/" + art.Name,
		}
		if err := site.FS().WriteFile(bin.Path, art.Bytes); err != nil {
			return nil, err
		}
		ts.Binaries = append(ts.Binaries, bin)
	}
	m := &matrixInstance{
		in: in, tb: tb, sim: execsim.NewSimulator(matrixSimSeed),
		eng:   feam.New(feam.WithWorkers(fanout())),
		agree: map[string][2]bool{},
	}
	for _, mig := range experiment.Migrations(tb, ts) {
		m.pairs = append(m.pairs, matrixPair{
			key: mig.Bin.ID() + "@" + mig.Target,
			set: &experiment.TestSet{Binaries: []*experiment.TestBinary{mig.Bin}},
			tb: &testbed.Testbed{
				Sites:  []*sitemodel.Site{tb.ByName[mig.Target]},
				ByName: tb.ByName, Specs: tb.Specs, Clusters: tb.Clusters,
			},
		})
	}
	rng := rand.New(rand.NewSource(in.seed ^ 0x3a7))
	rng.Shuffle(len(m.pairs), func(i, j int) { m.pairs[i], m.pairs[j] = m.pairs[j], m.pairs[i] })
	m.next = make([]int, fanout())
	for c := range m.next {
		m.next[c] = c * len(m.pairs) / len(m.next)
	}
	return m, nil
}

func (m *matrixInstance) Clients() int { return len(m.next) }

// Warmup runs every pair once, spread over the clients: staged library
// copies persist in the testbed, so the first pass is slower than every
// later one.
func (m *matrixInstance) Warmup(ctx context.Context) error {
	errs := make([]string, len(m.next))
	var wg sync.WaitGroup
	for c := range m.next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(m.pairs); i += len(m.next) {
				if r := m.runPair(ctx, m.pairs[i]); !r.OK {
					errs[c] = r.Detail
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			return fmt.Errorf("warm-up: %s", e)
		}
	}
	m.ResetLayers()
	return nil
}

func (m *matrixInstance) Op(ctx context.Context, c int) OpResult {
	i := m.next[c] % len(m.pairs)
	m.next[c]++
	return m.runPair(ctx, m.pairs[i])
}

// runPair migrates one binary to one target with one RunWithEngine call
// (source phase, basic and extended target phases, ground-truth runs) and
// checks the outcome. The engine's site locks keep concurrent calls safe.
func (m *matrixInstance) runPair(ctx context.Context, pair matrixPair) OpResult {
	t0 := time.Now()
	ev, err := experiment.RunWithEngine(ctx, m.eng, pair.tb, pair.set, m.sim, 1)
	res := OpResult{Elapsed: time.Since(t0)}
	if err != nil {
		res.Detail = fmt.Sprintf("%s: %v", pair.key, err)
		return res
	}
	if len(ev.Pairs) != 1 || ev.Pairs[0].Basic == nil || ev.Pairs[0].Extended == nil {
		res.Detail = pair.key + ": a prediction is missing"
		return res
	}
	p := ev.Pairs[0]
	got := goldenPair{Binary: p.Bin.ID(), Target: p.Target, Basic: p.Basic.Ready, Extended: p.Extended.Ready,
		Before: p.ActualBefore.Success(), After: p.ActualAfter.Success()}
	res.OK, res.Detail = checkPair(m.in.want, got)
	m.mu.Lock()
	for _, d := range ev.SourceDurations {
		m.source += d
	}
	for _, d := range ev.TargetDurations {
		m.target += d
	}
	m.agree[pair.key] = [2]bool{got.Basic == got.Before, got.Extended == got.After}
	m.mu.Unlock()
	return res
}

// checkPair is migration-matrix's oracle.
func checkPair(want map[string]goldenPair, got goldenPair) (bool, string) {
	w, ok := want[got.key()]
	if !ok {
		return false, got.key() + ": not in the golden table"
	}
	if got != w {
		return false, fmt.Sprintf("%s: got %+v, golden %+v", got.key(), got, w)
	}
	return true, ""
}

func (m *matrixInstance) cpuHours() float64 {
	var h float64
	for _, c := range m.tb.Clusters {
		h += c.CPUHoursUsed()
	}
	return h
}

func (m *matrixInstance) AttachSink(sink obs.Sink) { m.eng.Tracer().AddSink(sink) }

func (m *matrixInstance) Observed() []Observed {
	return []Observed{{Tracer: m.eng.Tracer(), Metrics: m.eng.Metrics()}}
}

// Layers reports FEAM's phase reports per op (the modelled phase times,
// not wall time), the probe allocation hours, and the subset's accuracy
// (latest outcome of every pair).
func (m *matrixInstance) Layers(ops int) map[string]Metric {
	m.mu.Lock()
	defer m.mu.Unlock()
	var basic, ext float64
	for _, a := range m.agree {
		if a[0] {
			basic++
		}
		if a[1] {
			ext++
		}
	}
	n := float64(len(m.agree))
	return map[string]Metric{
		"feam.source_phase_ms":  {ratio(float64(m.source)/float64(time.Millisecond), float64(ops)), "ms/op"},
		"feam.target_phase_ms":  {ratio(float64(m.target)/float64(time.Millisecond), float64(ops)), "ms/op"},
		"batch.probe_cpu_hours": {m.cpuHours() - m.cpuHours0, "h"},
		"accuracy_basic":        {ratio(basic, n), "ratio"},
		"accuracy_extended":     {ratio(ext, n), "ratio"},
	}
}

func (m *matrixInstance) ResetLayers() {
	h := m.cpuHours()
	m.mu.Lock()
	m.source, m.target, m.cpuHours0 = 0, 0, h
	m.mu.Unlock()
}

func (m *matrixInstance) Close() {}
