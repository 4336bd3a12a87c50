package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed contents so its renderings
// are byte-for-byte deterministic.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	ev := reg.Histogram(OpEvaluate)
	for _, d := range []time.Duration{
		800 * time.Nanosecond,
		5 * time.Microsecond,
		5 * time.Microsecond,
		120 * time.Microsecond,
		3 * time.Millisecond,
	} {
		ev.Observe(d)
	}
	pr := reg.Histogram(OpProbe)
	pr.Observe(40 * time.Millisecond)
	pr.Observe(2 * time.Second)
	reg.Histogram(OpRetrySleep).Observe(300 * time.Hour) // overflow bucket
	reg.Counter("evaluations").Add(5)
	reg.Counter("ready_predictions").Add(3)
	reg.Counter("probe_runs").Add(2)
	reg.Counter("bdc_hits").Add(4)
	reg.Counter("bdc_misses").Add(1)
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json.golden", buf.Bytes())
	// And it must be valid JSON that decodes back into a snapshot.
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["evaluations"] != 5 || len(snap.Histograms) != 3 {
		t.Errorf("decoded snapshot = %+v", snap)
	}
}

// promLine matches one sample line of text exposition format 0.0.4.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf)$`)

// TestPrometheusOutputParses validates the exposition-format invariants a
// Prometheus scraper relies on: every line is a comment or a well-formed
// sample, histogram buckets are cumulative and non-decreasing, the +Inf
// bucket equals the _count series, and every histogram op appears once.
func TestPrometheusOutputParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	type hist struct {
		lastCum int64
		infSeen bool
		inf     int64
		count   int64
	}
	hists := map[string]*hist{}
	opOf := regexp.MustCompile(`op="([^"]*)"`)
	leOf := regexp.MustCompile(`le="([^"]*)"`)
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d not parseable: %q", i+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		opm := opOf.FindStringSubmatch(labels)
		switch name {
		case promHistName + "_bucket":
			if opm == nil {
				t.Fatalf("line %d: bucket without op label: %q", i+1, line)
			}
			h := hists[opm[1]]
			if h == nil {
				h = &hist{}
				hists[opm[1]] = h
			}
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket value %q: %v", i+1, value, err)
			}
			if v < h.lastCum {
				t.Errorf("op %s: bucket counts not cumulative (%d after %d)", opm[1], v, h.lastCum)
			}
			h.lastCum = v
			lem := leOf.FindStringSubmatch(labels)
			if lem == nil {
				t.Fatalf("line %d: bucket without le label: %q", i+1, line)
			}
			if lem[1] == "+Inf" {
				h.infSeen = true
				h.inf = v
			} else if _, err := strconv.ParseFloat(lem[1], 64); err != nil {
				t.Errorf("le=%q is not a float", lem[1])
			}
		case promHistName + "_sum":
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("sum value %q: %v", value, err)
			}
		case promHistName + "_count":
			h := hists[opm[1]]
			v, _ := strconv.ParseInt(value, 10, 64)
			h.count = v
		case promCounterName:
			if !strings.Contains(labels, `event="`) {
				t.Errorf("counter without event label: %q", line)
			}
		default:
			t.Errorf("unexpected metric name %q", name)
		}
	}
	if len(hists) != 3 {
		t.Fatalf("parsed %d histogram series, want 3", len(hists))
	}
	for op, h := range hists {
		if !h.infSeen {
			t.Errorf("op %s: no +Inf bucket", op)
		}
		if h.inf != h.count {
			t.Errorf("op %s: +Inf bucket %d != count %d", op, h.inf, h.count)
		}
	}
}

// TestAttachRegistryOncePerPair: attaching one registry to one tracer
// twice feeds it once; a second registry on the same tracer is fed too.
func TestAttachRegistryOncePerPair(t *testing.T) {
	tr := newTestTracer(8)
	a, b := NewRegistry(), NewRegistry()
	tr.AttachRegistry(a)
	tr.AttachRegistry(a)
	tr.AttachRegistry(b)
	tr.Start(OpEvaluate).End(nil)
	for name, reg := range map[string]*Registry{"a": a, "b": b} {
		if got := reg.Counter("evaluations").Load(); got != 1 {
			t.Errorf("registry %s counted %d evaluations, want 1", name, got)
		}
	}
}

func TestRegistrySinkDerivesCountersAndHistograms(t *testing.T) {
	reg := NewRegistry()
	tr := newTestTracer(32)
	tr.AddSink(NewRegistrySink(reg))

	ev := tr.Start(OpEvaluate, WithBinary("cg"), WithSite("india"))
	ev.Event(EvCache, AttrComponent, "bdc", AttrKey, "cg", AttrHit, "true")
	ev.Event(EvCache, AttrComponent, "edc", AttrKey, "india", AttrHit, "false")
	probe := tr.Start(OpProbe, WithParent(ev), WithAttr(AttrStack, "s"), WithAttr(AttrSuccess, "x"))
	probe.SetAttr(AttrSuccess, "false")
	probe.End(nil)
	ev.Event(EvProbeRetry, AttrStack, "s", AttrAttempt, "1", AttrBackoffNS, "2000000")
	stg := tr.Start(OpStaging, WithParent(ev), WithAttr(AttrDir, "/d"), WithAttr(AttrLibs, "2"))
	stg.Event(EvStagingRetry, AttrPath, "/d/x", AttrAttempt, "1", AttrBackoffNS, "1000000")
	stg.SetAttr(AttrCommitted, "false")
	stg.End(fmt.Errorf("disk fault"))
	ev.SetAttr(AttrReady, "true")
	ev.End(nil)

	want := map[string]int64{
		"evaluations":       1,
		"ready_predictions": 1,
		"probe_runs":        1,
		"probe_failures":    1,
		"probe_retries":     1,
		"staging_retries":   1,
		"staging_rollbacks": 1,
		"bdc_hits":          1,
		"edc_misses":        1,
		"errors_staging":    1,
	}
	for name, v := range want {
		if got := reg.Counter(name).Load(); got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	for _, zero := range []string{"staging_commits", "bdc_misses", "edc_hits"} {
		if got := reg.Counter(zero).Load(); got != 0 {
			t.Errorf("counter %s = %d, want 0", zero, got)
		}
	}
	for op, n := range map[string]uint64{OpEvaluate: 1, OpProbe: 1, OpStaging: 1, OpRetrySleep: 2} {
		if got := reg.Histogram(op).Count(); got != n {
			t.Errorf("histogram %s count = %d, want %d", op, got, n)
		}
	}
	// The retry-sleep histogram records the nominal backoffs (2ms + 1ms).
	if got := reg.Histogram(OpRetrySleep).Snapshot().Sum; got != 3*time.Millisecond {
		t.Errorf("retry sleep sum = %v, want 3ms", got)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Histogram(OpEvaluate).Observe(time.Duration(i) * time.Microsecond)
				reg.Counter("evaluations").Add(1)
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("evaluations").Load(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := reg.Histogram(OpEvaluate).Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	reg := goldenRegistry()
	tr := newTestTracer(8)
	tr.Start(OpDiscover, WithSite("india")).End(nil)
	h := DebugHandler(reg, tr)

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	if rr := get("/metrics"); rr.Code != 200 || !strings.Contains(rr.Body.String(), promHistName) {
		t.Errorf("/metrics: code %d body %q", rr.Code, rr.Body.String())
	}
	if rr := get("/metrics.json"); rr.Code != 200 || !strings.Contains(rr.Body.String(), `"counters"`) {
		t.Errorf("/metrics.json: code %d", rr.Code)
	}
	if rr := get("/trace"); rr.Code != 200 || !strings.Contains(rr.Body.String(), `"op":"discover"`) {
		t.Errorf("/trace: code %d body %q", rr.Code, rr.Body.String())
	}
	if rr := get("/debug/vars"); rr.Code != 200 {
		t.Errorf("/debug/vars: code %d", rr.Code)
	}
	if rr := get("/debug/pprof/"); rr.Code != 200 {
		t.Errorf("/debug/pprof/: code %d", rr.Code)
	}
}
