package feam

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
)

// StepTiming records one phase step's simulated cost.
type StepTiming struct {
	Name     string
	Duration time.Duration
}

// Report summarizes a phase run: what happened and how long it took in
// simulated time. The paper reports both phases always completing in under
// five minutes, making FEAM debug-queue friendly.
type Report struct {
	Phase string
	Site  string
	Steps []StepTiming
	Notes []string
}

// Total is the phase's simulated duration.
func (r *Report) Total() time.Duration {
	var t time.Duration
	for _, s := range r.Steps {
		t += s.Duration
	}
	return t
}

func (r *Report) step(name string, d time.Duration) {
	r.Steps = append(r.Steps, StepTiming{Name: name, Duration: d})
}

func (r *Report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FEAM %s phase at %s: %s total\n", r.Phase, r.Site, r.Total())
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %-28s %s\n", s.Name, s.Duration)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Simulated step costs. File metadata operations are cheap; probe-program
// executions dominate because they pass through the batch system's debug
// queue. A cached environment survey is a memory lookup — it costs a
// nominal second of bookkeeping instead of the full site sweep.
const (
	costDescribe        = 2 * time.Second
	costDiscovery       = 25 * time.Second
	costDiscoveryCached = 1 * time.Second
	costPerLibrary      = 1 * time.Second
	costProbeRun        = 50 * time.Second
	costStaging         = 5 * time.Second
)

// RunSourcePhase executes FEAM's optional phase I through the package-level
// default engine. See Engine.RunSourcePhase.
func RunSourcePhase(cfg *Config, site *sitemodel.Site, runner ProgramRunner) (*Bundle, *Report, error) {
	return DefaultEngine().RunSourcePhase(context.Background(), cfg, site, runner)
}

// RunSourcePhase executes FEAM's optional phase I at a guaranteed execution
// environment: describe the binary, discover the environment, confirm the
// loaded stack matches the binary, gather library copies, and compile the
// probe programs. The result is a portable Bundle.
//
// The caller must hold SiteLock(site.Name) when the site is shared across
// goroutines.
func (e *Engine) RunSourcePhase(ctx context.Context, cfg *Config, site *sitemodel.Site, runner ProgramRunner) (*Bundle, *Report, error) {
	report := &Report{Phase: "source", Site: site.Name}
	if cfg.Phase != "source" {
		return nil, nil, fmt.Errorf("%w: config requests phase %q, not source", ErrBadConfig, cfg.Phase)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	desc, appBytes, err := e.DescribeFile(ctx, site, cfg.BinaryPath)
	if err != nil {
		return nil, nil, err
	}
	report.step("binary description (BDC)", costDescribe)

	env, cached, err := e.discoverCached(ctx, site)
	if err != nil {
		return nil, nil, err
	}
	if cached {
		report.step("environment discovery (EDC, cached)", costDiscoveryCached)
	} else {
		report.step("environment discovery (EDC)", costDiscovery)
	}

	// Confirm the currently selected stack matches the binary (§V.B).
	var stackKey string
	if desc.UsesMPI() {
		if env.Loaded == nil {
			report.note("no MPI stack loaded in the guaranteed environment; probes may be unrepresentative")
		} else if env.Loaded.Impl != desc.MPIImpl {
			// A stack mismatch at the guaranteed environment is a violated
			// phase-I precondition, not a pipeline fault: the user must load
			// the right stack and rerun, so no sentinel classifies it.
			//lint:ignore faultwrap precondition violation reported verbatim to the user, not routed through the taxonomy
			return nil, report, fmt.Errorf("feam: guaranteed environment has %s loaded but binary uses %s",
				env.Loaded.Impl, desc.MPIImpl)
		} else {
			stackKey = env.Loaded.Key
			report.note("loaded stack %s matches binary's %s", env.Loaded.Key, desc.MPIImpl)
		}
	}

	gather, err := e.GatherLibraries(ctx, site, appBytes, cfg.BinaryPath)
	if err != nil {
		return nil, report, err
	}
	report.step("library gathering", time.Duration(len(gather.Copies))*costPerLibrary)
	if len(gather.NotFound) > 0 {
		report.note("could not locate: %s", strings.Join(gather.NotFound, ", "))
	}

	bundle := &Bundle{
		App:         desc,
		AppBytes:    appBytes,
		Libs:        gather.Copies,
		SourceSite:  site.Name,
		SourceGlibc: site.Glibc.Clone(),
		SourceStack: stackKey,
		GatherNotes: gather,
	}

	// Compile and sanity-run the probe programs.
	if desc.UsesMPI() && env.Loaded != nil {
		rec := stackRecordFromInfo(env.Loaded)
		if hello, err := toolchain.CompileHello(rec, site); err == nil {
			bundle.MPIHello = hello
			if runner != nil {
				psp := e.tracer.Start(obs.OpProbe,
					obs.WithSite(site.Name), obs.WithBinary(cfg.BinaryPath),
					obs.WithAttr(obs.AttrStack, env.Loaded.Key),
					obs.WithAttr(obs.AttrAttempt, "1"))
				ok, detail := runner.RunProgram(ctx, hello, site, env.Loaded.Key, nil)
				psp.SetAttr(obs.AttrSuccess, strconv.FormatBool(ok))
				if !ok {
					psp.SetAttr(obs.AttrDetail, detail)
					report.note("source-site hello world FAILED: %s", detail)
				}
				psp.End(nil)
				report.step("MPI hello world probe", costProbeRun)
			}
		}
	}
	if family, ok := toolchain.FamilyFromKey(compilerFamilyOf(desc.BuildComment)); ok {
		if comp, found := toolchain.FindCompiler(site, family); found {
			if serial, err := toolchain.CompileSerialHello(comp, site); err == nil {
				bundle.SerialHello = serial
			}
		}
	}
	report.note("bundle size %d bytes (%d libraries)", bundle.Size(), len(bundle.Libs))
	// With a store configured the bundle is persisted under its content
	// hash so a restarted process rehydrates it instead of re-running the
	// source phase. Best-effort: a store fault is reported, not fatal.
	if e.store != nil {
		if err := e.SaveBundle(bundle); err != nil {
			report.note("bundle not persisted: %v", err)
		} else {
			report.note("bundle persisted under %s", desc.ContentHash[:12])
		}
	}
	return bundle, report, nil
}

// RunTargetPhase executes FEAM's required phase II through the
// package-level default engine. See Engine.RunTargetPhase.
func RunTargetPhase(cfg *Config, site *sitemodel.Site, bundle *Bundle, runner ProgramRunner) (*Prediction, *Report, error) {
	return DefaultEngine().RunTargetPhase(context.Background(), cfg, site, bundle, runner)
}

// RunTargetPhase executes FEAM's required phase II at a target site,
// producing the prediction and (when ready) the configuration script.
// bundle may be nil (basic prediction).
//
// The caller must hold SiteLock(site.Name) when the site is shared across
// goroutines.
func (e *Engine) RunTargetPhase(ctx context.Context, cfg *Config, site *sitemodel.Site, bundle *Bundle, runner ProgramRunner) (*Prediction, *Report, error) {
	report := &Report{Phase: "target", Site: site.Name}
	if cfg.Phase != "target" {
		return nil, nil, fmt.Errorf("%w: config requests phase %q, not target", ErrBadConfig, cfg.Phase)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}

	var desc *BinaryDescription
	var appBytes []byte
	switch {
	case cfg.BinaryPath != "" && site.FS().Exists(cfg.BinaryPath):
		d, data, err := e.DescribeFile(ctx, site, cfg.BinaryPath)
		if err != nil {
			return nil, nil, err
		}
		desc, appBytes = d, data
		report.step("binary description (BDC)", costDescribe)
	case bundle != nil:
		desc = bundle.App
		appBytes = bundle.AppBytes
		report.note("using bundled description from %s", bundle.SourceSite)
	default:
		return nil, nil, fmt.Errorf("%w: no binary at %q and no bundle", ErrNoEnvironment, cfg.BinaryPath)
	}

	env, cached, err := e.discoverCached(ctx, site)
	if err != nil {
		return nil, report, err
	}
	if cached {
		report.step("environment discovery (EDC, cached)", costDiscoveryCached)
	} else {
		report.step("environment discovery (EDC)", costDiscovery)
	}

	pred, err := e.Evaluate(ctx, desc, appBytes, env, site, EvalOptions{
		Bundle:  bundle,
		Runner:  runner,
		Resolve: bundle != nil,
		Config:  cfg,
	})
	if err != nil {
		return nil, report, err
	}
	// Probe runs: one per tested candidate stack (approximate: one when a
	// stack was selected, plus the extended cross test).
	if pred.SelectedStack != nil && runner != nil {
		report.step("stack usability probes", costProbeRun)
		if bundle != nil {
			report.step("extended compatibility probes", costProbeRun)
		}
	}
	report.step("target evaluation (TEC)", costDescribe)
	if len(pred.ResolvedLibs) > 0 {
		report.step("library resolution staging", costStaging+time.Duration(len(pred.ResolvedLibs))*costPerLibrary)
	}
	if pred.Ready {
		report.note("prediction: READY (stack %s)", pred.StackKey())
	} else {
		report.note("prediction: NOT READY — %s", strings.Join(pred.Reasons, "; "))
	}
	// The paper's TEC details its outcome to the user via output files.
	paths, err := pred.WriteOutputFiles(site)
	if err != nil {
		return nil, report, err
	}
	report.note("output written to %s", strings.Join(paths, ", "))
	return pred, report, nil
}
