// Command perfbench is FEAM's end-to-end benchmark. It runs one named
// workload from a seed, checks every answer against an oracle, and prints
// one JSON result object as the last line of standard output:
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (throughput,
// latency percentiles, set-up time, peak heap). With --trace 1 the run is
// split into an untraced and a traced half; the traced half attaches an
// in-memory span sink to every engine tracer and the result carries the
// per-layer metrics instead, plus the tracing overhead measured against
// the untraced half. The exit status is non-zero when any answer was
// wrong or the workload could not run.
//
// See README.md for the workload table and the metric → layer mapping.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's one-line JSON verdict.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// workloads maps each benchmark workload name to its implementation.
var workloads = map[string]Workload{
	"serve-hot":        serveHot,
	"fleet-churn":      fleetChurn,
	"migration-matrix": migrationMatrix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		size     = fs.String("size", "full", "input size: full or tiny (tests)")
		root     = fs.String("root", ".", "repository root (fleet specs and golden data are read from it)")
		spansOut = fs.String("spans-out", "", "traced runs: write spans as JSONL here (default .bench_build/spans-<workload>.jsonl)")
		golden   = fs.String("gen-golden", "", "regenerate the migration-matrix golden table at this path and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *golden != "" {
		if err := generateGolden(ctx, *golden, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: --size must be full or tiny, got %q\n", *size)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *trace == 1 && *spansOut == "" {
		*spansOut = filepath.Join(".bench_build", "spans-"+*name+".jsonl")
	}
	p := Params{
		Seed: *seed, Tiny: *size == "tiny", Root: *root,
		Measure: time.Duration(*seconds * float64(time.Second)),
		Trace:   *trace == 1, SpansOut: *spansOut,
		Log: stderr,
	}
	res, err := Execute(ctx, w, p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
