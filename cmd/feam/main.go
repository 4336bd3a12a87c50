// Command feam demonstrates the FEAM two-phase migration workflow on the
// simulated five-site testbed: it compiles a benchmark at a source site,
// runs the source phase there (bundle creation), migrates the binary to a
// target site, runs the target phase (prediction + resolution), prints the
// emitted site-configuration script, and finally executes the binary with
// the ground-truth simulator to show whether the prediction was right.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"feam/internal/batch"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/report"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/vfs"
	"feam/internal/workload"
)

func main() {
	var (
		code    = flag.String("code", "cg", "benchmark code (is, ep, cg, mg, bt, sp, lu, 104.milc, ...)")
		class   = flag.String("class", "A", "NPB problem class (S, W, A, B, C)")
		from    = flag.String("from", "ranger", "source site (guaranteed execution environment)")
		stack   = flag.String("stack", "mvapich2-1.2-gnu", "MPI stack key at the source site")
		to      = flag.String("to", "india", "target site")
		basic   = flag.Bool("basic", false, "skip the source phase (basic prediction only)")
		seed    = flag.Int64("seed", 2013, "simulation seed")
		workers = flag.Int("workers", 4, "concurrent site surveys for -to all")
		verbose = flag.Bool("v", false, "print phase reports, bundle contents, and engine statistics")
	)
	flag.Parse()
	if err := run(*code, *class, *from, *stack, *to, *basic, *seed, *workers, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "feam:", err)
		os.Exit(1)
	}
}

func run(codeName, className, from, stackKey, to string, basic bool, seed int64, workers int, verbose bool) error {
	ctx := context.Background()
	// Construct the engine's three layers explicitly: shared metrics, a
	// sharded site registry over them, and a persistent store (in-memory
	// vfs here — the simulated world has no host disk) so surveys, binary
	// descriptions, and the bundle are persisted as the workflow computes
	// them.
	metricsReg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	sites := registry.New(registry.WithMetrics(metricsReg))
	st, err := store.Open(vfs.New(), "/feam/state",
		store.WithMetrics(metricsReg), store.WithTracer(tr))
	if err != nil {
		return err
	}
	eng := feam.New(
		feam.WithTracer(tr),
		feam.WithMetrics(metricsReg),
		feam.WithRegistry(sites),
		feam.WithStore(st),
	)
	if verbose {
		defer func() {
			fmt.Printf("\n%s", report.Latency(eng.Metrics()))
			fmt.Printf("\nengine: %s\n", report.EngineActivity(eng.Metrics()))
			rst := sites.Stats()
			sst := st.Stats()
			fmt.Printf("registry: %d sites, %d surveys, %d descriptions cached (%d hits / %d misses, %d evicted)\n",
				rst.Sites, rst.Surveys, rst.Descriptions, rst.Hits, rst.Misses, rst.Evictions)
			fmt.Printf("store: %d commits, %d loads, %d corrupt\n", sst.Commits, sst.Loads, sst.Corrupt)
		}()
	}
	code := workload.Find(codeName)
	if code == nil {
		return fmt.Errorf("unknown code %q", codeName)
	}
	if !workload.Class(className).Valid() {
		return fmt.Errorf("unknown problem class %q", className)
	}
	code = code.WithClass(workload.Class(className))
	fmt.Printf("Building the five-site testbed (Table II)...\n")
	tb, err := testbed.Build()
	if err != nil {
		return err
	}
	src, ok := tb.ByName[from]
	if !ok {
		return fmt.Errorf("unknown source site %q", from)
	}
	dst, ok := tb.ByName[to]
	if !ok && to != "all" {
		return fmt.Errorf("unknown target site %q", to)
	}
	rec := src.FindStack(stackKey)
	if rec == nil {
		var keys []string
		for _, r := range src.Stacks {
			keys = append(keys, r.Key)
		}
		return fmt.Errorf("no stack %q at %s (have: %s)", stackKey, from, strings.Join(keys, ", "))
	}

	sim := execsim.NewSimulator(seed)
	runner := experiment.NewSimRunner(sim)

	fmt.Printf("Compiling %s at %s with %s...\n", code.Name, from, stackKey)
	art, err := toolchain.Compile(code, rec, src)
	if err != nil {
		return err
	}
	binPath := "/home/user/" + art.Name
	if err := src.FS().WriteFile(binPath, art.Bytes); err != nil {
		return err
	}

	var bundle *feam.Bundle
	if !basic {
		fmt.Printf("\n== FEAM source phase at %s ==\n", from)
		snap := src.SnapshotEnv()
		if err := testbed.ActivateStack(src, stackKey); err != nil {
			return err
		}
		cfg := configFor(tb, from, "source", binPath)
		b, report, err := eng.RunSourcePhase(ctx, cfg, src, runner)
		src.RestoreEnv(snap)
		if err != nil {
			return err
		}
		bundle = b
		fmt.Printf("bundle: %d libraries, %.1f MB, simulated duration %v\n",
			len(bundle.Libs), float64(bundle.Size())/(1<<20), report.Total())
		if verbose {
			fmt.Print(bundle.Summary())
			fmt.Print(report.String())
		}

		// Ship the bundle the way a user would: serialize it, copy the
		// archive to the target site, decode it there. (Skipped for the
		// all-sites ranking, which evaluates in place.)
		if dst != nil {
			archive, err := feam.EncodeBundle(bundle)
			if err != nil {
				return err
			}
			archivePath := binPath + ".feambundle"
			if err := dst.FS().WriteFile(archivePath, archive); err != nil {
				return err
			}
			raw, err := dst.FS().ReadFile(archivePath)
			if err != nil {
				return err
			}
			bundle, err = eng.DecodeBundle(ctx, raw)
			if err != nil {
				return err
			}
			fmt.Printf("bundle archive shipped to %s:%s (%d bytes)\n", to, archivePath, len(archive))
		}
	}

	// "-to all": rank every other site instead of a single target phase —
	// the paper's quickly-assess-many-sites use case.
	if to == "all" {
		desc, err := eng.Describe(ctx, art.Bytes, art.Name)
		if err != nil {
			return err
		}
		var targets []*sitemodel.Site
		for _, s := range tb.Sites {
			if s.Name != from {
				targets = append(targets, s)
			}
		}
		fmt.Printf("\n== Ranking %d candidate sites (%d workers) ==\n", len(targets), workers)
		ranked := eng.RankSitesParallel(ctx, desc, art.Bytes, targets, feam.EvalOptions{
			Bundle: bundle, Resolve: bundle != nil, Runner: runner,
		}, workers)
		for i, a := range ranked {
			switch {
			case a.Err != nil:
				kind := "assessment failed"
				if errors.Is(a.Err, feam.ErrSiteUnavailable) {
					kind = "survey failed"
				}
				fmt.Printf("%d. %-12s %s: %v\n", i+1, a.Site, kind, a.Err)
			case a.Prediction.Ready && len(a.Prediction.ResolvedLibs) == 0:
				fmt.Printf("%d. %-12s READY as-is (stack %s)\n", i+1, a.Site, a.Prediction.StackKey())
			case a.Prediction.Ready:
				fmt.Printf("%d. %-12s READY with %d staged libraries (stack %s)\n",
					i+1, a.Site, len(a.Prediction.ResolvedLibs), a.Prediction.StackKey())
			default:
				reason := "unknown"
				if len(a.Prediction.Reasons) > 0 {
					reason = a.Prediction.Reasons[0]
				}
				fmt.Printf("%d. %-12s not ready: %s\n", i+1, a.Site, reason)
			}
		}
		return nil
	}

	fmt.Printf("\n== FEAM target phase at %s ==\n", to)
	if err := dst.FS().WriteFile(binPath, art.Bytes); err != nil {
		return err
	}
	cfg := configFor(tb, to, "target", binPath)
	pred, report, err := eng.RunTargetPhase(ctx, cfg, dst, bundle, runner)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Print(report.String())
	}
	fmt.Printf("prediction: ")
	if pred.Ready {
		fmt.Printf("READY (stack %s)\n", pred.StackKey())
	} else {
		fmt.Printf("NOT READY\n")
		for _, r := range pred.Reasons {
			fmt.Printf("  - %s\n", r)
		}
	}
	for _, d := range feam.Determinants() {
		res := pred.Determinants[d]
		fmt.Printf("  %-30s %-13s %s\n", d, res.Outcome, res.Detail)
	}
	if len(pred.ResolvedLibs) > 0 {
		fmt.Printf("resolved libraries staged at %s: %s\n", pred.StageDir, strings.Join(pred.ResolvedLibs, ", "))
	}
	if pred.ConfigScript != "" {
		fmt.Printf("\nsite configuration script:\n%s", indent(pred.ConfigScript))
	}

	// Ground truth: does it actually run?
	fmt.Printf("\n== Actual execution at %s ==\n", to)
	stackUsed := pred.StackKey()
	if stackUsed == "" {
		for _, r := range dst.Stacks {
			if r.Impl == art.Truth.Impl {
				stackUsed = r.Key
				break
			}
		}
	}
	var recDst = dst.FindStack(stackUsed)
	snap := dst.SnapshotEnv()
	if stackUsed != "" {
		if err := testbed.ActivateStack(dst, stackUsed); err != nil {
			return err
		}
	}
	res := sim.Run(execsim.Request{Art: art, Site: dst, Stack: recDst, ExtraLibDirs: pred.ExtraLibDirs()})
	dst.RestoreEnv(snap)
	if res.Success() {
		fmt.Printf("execution SUCCEEDED (%d attempt(s), ~%v)\n", res.Attempts, res.RunTime)
	} else {
		fmt.Printf("execution FAILED: %s — %s\n", res.Class, res.Detail)
	}
	match := pred.Ready == res.Success()
	fmt.Printf("prediction was %s\n", map[bool]string{true: "CORRECT", false: "WRONG"}[match])
	return nil
}

func configFor(tb *testbed.Testbed, siteName, phase, binaryPath string) *feam.Config {
	spec := tb.Specs[siteName]
	serial := batch.Generate(batch.ScriptSpec{
		Manager: spec.Manager, JobName: "feam-serial", Queue: "debug",
		Nodes: 1, Tasks: 1, WallTime: 10 * time.Minute, Command: batch.CmdPlaceholder,
	})
	parallel := batch.Generate(batch.ScriptSpec{
		Manager: spec.Manager, JobName: "feam-parallel", Queue: "debug",
		Nodes: 1, Tasks: 4, WallTime: 15 * time.Minute, Command: batch.CmdPlaceholder,
	})
	return &feam.Config{
		Phase: phase, BinaryPath: binaryPath,
		SerialScript: serial, ParallelScript: parallel,
		MpiexecByImpl: map[string]string{"mvapich2": "mpirun_rsh"},
	}
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("    " + line + "\n")
	}
	return b.String()
}
