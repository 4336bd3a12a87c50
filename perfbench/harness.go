package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feam/internal/obs"
)

// Params configures one benchmark run.
type Params struct {
	Seed int64
	// Tiny shrinks inputs (fleet size, matrix subset) and sets up once,
	// for the package's own tests; benchmark runs use full size.
	Tiny bool
	// Root is the repository root; fleet specs and golden data are read
	// relative to it.
	Root string
	// Measure is the wall-clock length of the measured phase.
	Measure  time.Duration
	Trace    bool
	SpansOut string
	Log      io.Writer
}

func (p Params) logf(format string, args ...any) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format+"\n", args...)
	}
}

// Workload is one named benchmark scenario. Prepare runs once per process
// and off the clock (oracle construction); Setup builds the system under
// test and is timed, warm-up included.
type Workload struct {
	Prepare func(ctx context.Context, p Params) (any, error)
	Setup   func(ctx context.Context, p Params, prepared any) (Instance, error)
}

// Instance is one set-up workload.
type Instance interface {
	// Clients is the closed-loop client count.
	Clients() int
	// Warmup runs a pass off the clock so caches, staged copies and
	// connections reach their steady state before measurement.
	Warmup(ctx context.Context) error
	// Op runs client c's next operation, checks its answer, and reports
	// the on-clock part of its duration.
	Op(ctx context.Context, c int) OpResult
	// Observed lists the tracers and metrics registries of every engine
	// the workload has driven so far.
	Observed() []Observed
	// AttachSink adds a span sink to every engine tracer, including those
	// of engines the workload builds later.
	AttachSink(obs.Sink)
	// Layers reports workload-specific per-layer metrics accumulated since
	// the last ResetLayers; ops is the op count of that window.
	Layers(ops int) map[string]Metric
	ResetLayers()
	Close()
}

// OpResult is one operation's outcome.
type OpResult struct {
	Elapsed time.Duration
	OK      bool
	// Detail explains a wrong answer.
	Detail string
}

// Observed is one engine's observability surface.
type Observed struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// rateWindows is how many consecutive windows of on-clock time each
// client's ops are cut into; throughput is the median window's rate, so a
// burst of interference from outside the process moves it little.
const rateWindows = 10

// phase is one measured window.
type phase struct {
	lat      []time.Duration
	rates    []float64         // per client: median windowed ops per second
	windows  [][]time.Duration // every client's windows of op latencies
	failed   int
	wall     time.Duration
	peakHeap uint64
	alloc    uint64
	gcs      uint32
	gcPause  time.Duration
	details  []string
}

func (ph *phase) ops() int { return len(ph.lat) }

// opsPerSec sums the clients' median windowed rates: completed ops per
// second of on-clock time (wall time, for the serving workloads).
func (ph *phase) opsPerSec() float64 {
	var sum float64
	for _, r := range ph.rates {
		sum += r
	}
	return sum
}

// cutWindows cuts one client's op latencies, in issue order, into
// rateWindows windows of equal on-clock time; a trailing window shorter
// than half the width is too short to rate and is dropped.
func cutWindows(lat []time.Duration, total time.Duration) [][]time.Duration {
	width := total / rateWindows
	var out [][]time.Duration
	start := 0
	var span time.Duration
	for i, l := range lat {
		span += l
		if span >= width {
			out = append(out, lat[start:i+1])
			start, span = i+1, 0
		}
	}
	if start < len(lat) && (span >= width/2 || len(out) == 0) {
		out = append(out, lat[start:])
	}
	return out
}

// windowRate is one window's ops per second of on-clock time.
func windowRate(w []time.Duration) float64 {
	var span time.Duration
	for _, l := range w {
		span += l
	}
	if span <= 0 {
		return 0
	}
	return float64(len(w)) / span.Seconds()
}

// percentileMS is the q-quantile of op latency in milliseconds (linear
// interpolation between closest ranks) over the whole phase.
func (ph *phase) percentileMS(q float64) float64 {
	return quantile(ph.lat, q)
}

// windowedPercentileMS is the median over the phase's windows of each
// window's q-quantile: like the rate, robust to a burst of interference
// from outside the process. Windows too small to hold ten samples beyond
// the quantile are skipped; when fewer than half the windows are large
// enough it falls back to the whole phase.
func (ph *phase) windowedPercentileMS(q float64) float64 {
	var per []float64
	for _, w := range ph.windows {
		if enoughFor(len(w), q) {
			per = append(per, quantile(w, q))
		}
	}
	if len(per) < rateWindows/2 {
		return ph.percentileMS(q)
	}
	return median(per)
}

func quantile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (float64(s[hi])-float64(s[lo]))*(pos-float64(lo))
	return v / float64(time.Millisecond)
}

// enoughFor reports whether n samples leave at least ten beyond the
// q-quantile, the rule for reporting a percentile.
func enoughFor(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// offClock state: heapPaused turns sampleHeap off while an op runs
// benchmark work, and offGCs, offPauseNs and offAlloc count the collector
// work and allocation of that time, which measure takes out of the
// window's figures.
var (
	heapPaused                   atomic.Int32
	offGCs, offPauseNs, offAlloc atomic.Uint64
)

// offClock runs fn, work of the benchmark rather than of the system under
// test (an oracle), with heap sampling paused, then collects its garbage
// before the next on-clock operation: neither peak_heap_mb nor the
// collector and allocation figures count it.
func offClock(fn func()) {
	heapPaused.Add(1)
	defer heapPaused.Add(-1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0, alloc0 := ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc
	fn()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	offGCs.Add(uint64(ms.NumGC - gc0))
	offPauseNs.Add(ms.PauseTotalNs - pause0)
	offAlloc.Add(ms.TotalAlloc - alloc0)
}

// measure runs the closed loop: every client issues its next op as soon
// as the previous one returns, until d of wall-clock time has passed. A
// fixed wall-clock length keeps every run of a workload equally long,
// whatever share of it the workload spends off the clock.
func measure(ctx context.Context, inst Instance, d time.Duration) *phase {
	clients := inst.Clients()
	ph := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0, pause0 := ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	offAlloc0, offGCs0, offPause0 := offAlloc.Load(), offGCs.Load(), offPauseNs.Load()

	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []time.Duration
			var on time.Duration
			failed := 0
			var details []string
			for time.Since(start) < d && ctx.Err() == nil {
				r := inst.Op(ctx, c)
				lat = append(lat, r.Elapsed)
				on += r.Elapsed
				if !r.OK {
					failed++
					if len(details) < 5 {
						details = append(details, r.Detail)
					}
				}
			}
			windows := cutWindows(lat, on)
			var rates []float64
			for _, w := range windows {
				rates = append(rates, windowRate(w))
			}
			mu.Lock()
			ph.rates = append(ph.rates, median(rates))
			ph.windows = append(ph.windows, windows...)
			ph.lat = append(ph.lat, lat...)
			ph.failed += failed
			ph.details = append(ph.details, details...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	close(stopHeap)
	ph.peakHeap = <-heapDone

	runtime.ReadMemStats(&ms)
	ph.alloc = ms.TotalAlloc - alloc0 - (offAlloc.Load() - offAlloc0)
	ph.gcs = ms.NumGC - gc0 - uint32(offGCs.Load()-offGCs0)
	ph.gcPause = time.Duration(ms.PauseTotalNs - pause0 - (offPauseNs.Load() - offPause0))
	return ph
}

// sampleHeap tracks the peak live heap — the bytes the last collection
// marked reachable — every 5ms through runtime/metrics, which reads
// without stopping the world. Unlike total heap objects it does not swing
// with where a run stops relative to the collector's cycle. It skips the
// samples offClock pauses.
func sampleHeap(stop <-chan struct{}, out chan<- uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		if heapPaused.Load() > 0 {
			return
		}
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		read()
		select {
		case <-stop:
			read()
			out <- peak
			return
		case <-t.C:
		}
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// releaseMemory returns a released instance's memory before the next
// set-up, so repeated set-ups do not stack their fleets.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRuns is how many times a full-size run sets the workload up;
// setup_s is their median and the last instance is measured. Tiny runs
// set up once.
const setupRuns = 3

// Execute sets the workload up, measures the last instance and assembles
// the result.
func Execute(ctx context.Context, w Workload, p Params) (*Result, error) {
	var prepared any
	if w.Prepare != nil {
		var err error
		if prepared, err = w.Prepare(ctx, p); err != nil {
			return nil, fmt.Errorf("preparing inputs: %w", err)
		}
	}
	var inst Instance
	var setups []float64
	runs := setupRuns
	if p.Tiny {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		if inst != nil {
			inst.Close()
			inst = nil
			releaseMemory()
		}
		t0 := time.Now()
		in, err := w.Setup(ctx, p, prepared)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := in.Warmup(ctx); err != nil {
			in.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.Close()
	p.logf("set-up: %.3fs median of %v", median(setups), setups)

	res := &Result{Correct: true, Metrics: map[string]Metric{}}
	live0 := liveHeap()
	if !p.Trace {
		ph := measure(ctx, inst, p.Measure)
		account(res, ph, p)
		res.Metrics["ops_per_s"] = Metric{ph.opsPerSec(), "1/s"}
		res.Metrics["latency_p50_ms"] = Metric{ph.windowedPercentileMS(0.50), "ms"}
		res.Metrics["latency_p90_ms"] = Metric{ph.windowedPercentileMS(0.90), "ms"}
		res.Metrics["setup_s"] = Metric{median(setups), "s"}
		res.Metrics["peak_heap_mb"] = Metric{float64(ph.peakHeap) / (1 << 20), "MB"}
		p.logf("measured %d ops (%d failed) in %.2fs wall, p99 %.3fms over %d samples",
			ph.ops(), ph.failed, ph.wall.Seconds(), ph.percentileMS(0.99), ph.ops())
		var rates []string
		for _, w := range ph.windows {
			rates = append(rates, fmt.Sprintf("%.0f", windowRate(w)))
		}
		p.logf("window ops/s: %s", strings.Join(rates, " "))
		checkHeap(res, p, live0)
		return res, nil
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// traced half whose layers are reported.
	base := measure(ctx, inst, p.Measure/2)
	account(res, base, p)
	sink := newSpanSink()
	before := map[*obs.Registry]obs.Snapshot{}
	for _, o := range inst.Observed() {
		before[o.Metrics] = o.Metrics.Snapshot()
	}
	inst.AttachSink(sink)
	inst.ResetLayers()
	ph := measure(ctx, inst, p.Measure/2)
	sink.stop()
	account(res, ph, p)
	for k, v := range layerMetrics(inst.Observed(), before, sink, ph) {
		res.Metrics[k] = v
	}
	for k, v := range inst.Layers(ph.ops()) {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead_pct"] = Metric{pctChange(base.opsPerSec(), ph.opsPerSec()), "%"}
	res.Metrics["trace.p50_overhead_pct"] = Metric{pctChange(ph.percentileMS(0.5), base.percentileMS(0.5)), "%"}
	if p.SpansOut != "" {
		if err := sink.writeJSONL(p.SpansOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		p.logf("wrote %d spans to %s", sink.len(), p.SpansOut)
	}
	checkHeap(res, p, live0)
	complete(res.Metrics, perLayer)
	return res, nil
}

// pctChange is how much larger a is than b, in percent.
func pctChange(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

// account folds a phase's attempts and failures into the result.
func account(res *Result, ph *phase, p Params) {
	res.Attempted += ph.ops()
	res.Failed += ph.failed
	if ph.failed > 0 {
		res.Correct = false
		for _, d := range ph.details {
			p.logf("wrong answer: %s", d)
		}
	}
	if ph.ops() == 0 {
		res.Correct = false
		p.logf("no operation completed")
	}
}

// checkHeap fails the run when the live heap after measurement has grown
// well beyond its size after warm-up: steady-state operation must not
// accumulate state. Traced runs keep every span in memory and are exempt.
func checkHeap(res *Result, p Params, live0 uint64) {
	live1 := liveHeap()
	growth := (float64(live1) - float64(live0)) / (1 << 20)
	if p.Trace {
		res.Metrics["go.live_heap_growth_mb"] = Metric{growth, "MB"}
		return
	}
	if growth > 64 && float64(live1) > 1.5*float64(live0) {
		res.Correct = false
		p.logf("live heap grew from %.1f MB to %.1f MB during measurement",
			float64(live0)/(1<<20), float64(live1)/(1<<20))
	}
}
