package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
)

// spanRecord is the part of an ended span the benchmark keeps. Sinks may
// not retain the span itself.
type spanRecord struct {
	ID          uint64        `json:"id"`
	Parent      uint64        `json:"parent,omitempty"`
	Op          string        `json:"op"`
	Site        string        `json:"site,omitempty"`
	Determinant string        `json:"determinant,omitempty"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration_ns"`
	Status      string        `json:"status,omitempty"`
}

// spanSink keeps every ended span in memory for self-time analysis.
type spanSink struct {
	mu      sync.Mutex
	spans   []spanRecord
	stopped bool
}

func newSpanSink() *spanSink { return &spanSink{} }

func (s *spanSink) SpanStarted(*obs.Span)          {}
func (s *spanSink) SpanEvent(*obs.Span, obs.Event) {}
func (s *spanSink) SpanEnded(sp *obs.Span) {
	rec := spanRecord{
		ID: sp.ID, Parent: sp.Parent, Op: sp.Op, Site: sp.Site,
		Determinant: sp.Determinant, Start: sp.Start, Duration: sp.Duration, Status: sp.Status,
	}
	s.mu.Lock()
	if !s.stopped {
		s.spans = append(s.spans, rec)
	}
	s.mu.Unlock()
}

// stop freezes the collection (tracers keep the sink registered).
func (s *spanSink) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

func (s *spanSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// selfTimes returns, per operation (and per determinant for determinant
// spans, keyed "determinant/<name>"), the summed self time: each span's
// duration minus its direct children's, floored at zero when children ran
// in parallel.
func (s *spanSink) selfTimes() map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	childSum := make(map[uint64]time.Duration, len(s.spans))
	for _, sp := range s.spans {
		if sp.Parent != 0 {
			childSum[sp.Parent] += sp.Duration
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range s.spans {
		self := sp.Duration - childSum[sp.ID]
		if self < 0 {
			self = 0
		}
		key := sp.Op
		if sp.Op == obs.OpDeterminant {
			key = "determinant/" + sp.Determinant
		}
		out[key] += self
	}
	return out
}

func (s *spanSink) writeJSONL(path string) error {
	//lint:ignore vfsonly span dumps are files of the checkout, not a site filesystem
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	//lint:ignore vfsonly span dumps are files of the checkout, not a site filesystem
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// detKeys maps determinant span names to metric suffixes.
var detKeys = map[string]string{
	feam.DetISA.String():        "isa",
	feam.DetMPIStack.String():   "mpi",
	feam.DetCLibrary.String():   "clib",
	feam.DetSharedLibs.String(): "sharedlibs",
	feam.DetABI.String():        "abi",
}

// registryDelta sums, across engines, the counter and histogram growth
// since the before snapshots; an engine built during the window has none.
type registryDelta struct {
	counters map[string]int64
	counts   map[string]uint64
	sums     map[string]time.Duration
}

func deltaOf(observed []Observed, before map[*obs.Registry]obs.Snapshot) registryDelta {
	d := registryDelta{counters: map[string]int64{}, counts: map[string]uint64{}, sums: map[string]time.Duration{}}
	for _, o := range observed {
		after := o.Metrics.Snapshot()
		b := before[o.Metrics]
		for k, v := range after.Counters {
			d.counters[k] += v - b.Counters[k]
		}
		prev := map[string]obs.HistSnapshot{}
		for _, h := range b.Histograms {
			prev[h.Op] = h
		}
		for _, h := range after.Histograms {
			d.counts[h.Op] += h.Count - prev[h.Op].Count
			d.sums[h.Op] += h.Sum - prev[h.Op].Sum
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the engine-side per-layer metrics of a traced phase
// from the metrics registries (counts, busy time) and the span sink (self
// time). Times are milliseconds per benchmark op.
func layerMetrics(observed []Observed, before map[*obs.Registry]obs.Snapshot, sink *spanSink, ph *phase) map[string]Metric {
	d := deltaOf(observed, before)
	ops := float64(ph.ops())
	perOp := func(t time.Duration) float64 { return ratio(float64(t)/float64(time.Millisecond), ops) }
	count := func(v float64) Metric { return Metric{v, "count"} }
	msOp := func(t time.Duration) Metric { return Metric{perOp(t), "ms/op"} }

	hit, miss := float64(d.counters["registry_hit"]), float64(d.counters["registry_miss"])
	ready := float64(d.counters["ready_predictions"])
	m := map[string]Metric{
		"registry.hit":      count(hit),
		"registry.miss":     count(miss),
		"registry.evict":    count(float64(d.counters["registry_evict"])),
		"registry.hit_rate": {ratio(hit, hit+miss), "ratio"},

		"feam.bdc.describe_count": count(float64(d.counts[obs.OpDescribe])),
		"feam.bdc.describe_ms":    msOp(d.sums[obs.OpDescribe]),

		"feam.edc.discover_count": count(float64(d.counts[obs.OpDiscover])),
		"feam.edc.discover_ms":    msOp(d.sums[obs.OpDiscover]),
		"feam.edc.shard_walks":    count(float64(d.counts[obs.OpShardWalk])),
		"feam.edc.shard_walks_per_event": {
			ratio(float64(d.counts[obs.OpShardWalk]), ops), "count/op"},

		"feam.tec.evaluate_count": count(float64(d.counts[obs.OpEvaluate])),
		"feam.tec.evaluate_ms":    msOp(d.sums[obs.OpEvaluate]),

		"execsim.probe_runs":       count(float64(d.counters["probe_runs"])),
		"execsim.probe_ms":         msOp(d.sums[obs.OpProbe]),
		"execsim.probes_per_ready": {ratio(float64(d.counters["probe_runs"]), ready), "ratio"},
		"fault.probe_retries":      count(float64(d.counters["probe_retries"])),
		"fault.retry_sleep_ms":     msOp(d.sums[obs.OpRetrySleep]),

		"feam.staging.commits":   count(float64(d.counters["staging_commits"])),
		"feam.staging.rollbacks": count(float64(d.counters["staging_rollbacks"])),
		"feam.staging.ms":        msOp(d.sums[obs.OpStaging]),

		"abicheck.index_builds": count(float64(d.counts[obs.OpSymIndex])),
		"abicheck.index_ms":     msOp(d.sums[obs.OpSymIndex]),
		"abicheck.check_ms":     msOp(d.sums[obs.OpABICheck]),
		"abicheck.agree":        count(float64(d.counters["abi_agree"])),
		"abicheck.disagree":     count(float64(d.counters["abi_disagree"])),

		"store.commits":   count(float64(d.counters["store_commit"])),
		"store.commit_ms": msOp(d.sums[obs.OpStoreCommit]),
		"store.loads":     count(float64(d.counters["store_load"])),
		"store.load_ms":   msOp(d.sums[obs.OpStoreLoad]),
		"store.corrupt":   count(float64(d.counters["store_corrupt"])),

		"go.alloc_kb_per_op": {ratio(float64(ph.alloc)/1024, ops), "KB/op"},
		"go.gc_cycles":       count(float64(ph.gcs)),
		"go.gc_pause_ms":     {float64(ph.gcPause) / float64(time.Millisecond), "ms"},

		"error_rate":      {ratio(float64(ph.failed), ops), "ratio"},
		"latency.samples": count(ops),
		"trace.spans":     count(float64(sink.len())),
	}
	// A percentile is reported only when at least ten samples lie beyond
	// it; otherwise it reads 0.
	p99 := 0.0
	if enoughFor(ph.ops(), 0.99) {
		p99 = ph.percentileMS(0.99)
	}
	m["latency_p99_ms"] = Metric{p99, "ms"}

	self := sink.selfTimes()
	for name, key := range detKeys {
		m["feam.tec.determinant_ms."+key] = msOp(self["determinant/"+name])
	}
	m["feam.rank.assess_self_ms"] = msOp(self[obs.OpAssess])
	var total time.Duration
	for _, t := range self {
		total += t
	}
	m["trace.self_ms_per_op"] = msOp(total)
	return m
}
