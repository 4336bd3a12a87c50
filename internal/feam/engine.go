package feam

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"feam/internal/fault"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
)

// Engine is the stateless prediction core: the determinant-evaluator
// ladder, the worker-pool width, the retry policy, and the observability
// wiring — configuration fixed at construction, never mutated. All engine
// *state* (site table, per-site locks, memoized BDC and EDC caches,
// persisted surveys and bundles) lives behind the SiteRegistry and Store
// layers, so any number of engines sharing one registry and store see one
// coherent fleet; the paper's headline use case — assessing many
// (binary, site) pairs — scales by adding engines, not by growing one.
//
// Concurrency contract: the engine is immutable and its layers are safe
// for concurrent use. Sites themselves are NOT internally synchronized —
// any caller running engine operations against the same site from
// multiple goroutines must hold SiteLock(site.Name) around them. RankSites
// does this itself; Evaluate and the phase runners leave it to the caller
// so a caller can group several operations (stage a binary, activate a
// stack, evaluate) into one critical section without deadlocking. Engines
// sharing one registry share one set of site locks, which is what makes
// cross-engine evaluation of one site safe.
type Engine struct {
	evaluators []DeterminantEvaluator
	workers    int
	retry      fault.RetryPolicy

	// sites is the in-memory state layer (never nil); store is the
	// optional persistence layer a restarted process rehydrates from.
	sites SiteRegistry
	store Store

	// tracer and reg are fixed at construction: every pipeline operation
	// emits spans through tracer, and reg holds the latency histograms and
	// event counters a registry sink derives from them. External observers
	// attach span sinks to the tracer or read the registry; there is no
	// separate callback vocabulary.
	tracer *obs.Tracer
	reg    *obs.Registry
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// defaultEngine backs the package-level free functions so the pre-engine
// public surface keeps working (and transparently gains the caches).
var (
	defaultEngineOnce sync.Once
	defaultEngineVal  *Engine
)

// DefaultEngine returns the shared package-level engine used by the free
// Describe/Discover/Evaluate/phase functions.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngineVal = New() })
	return defaultEngineVal
}

// Tracer returns the engine's span tracer (never nil). Attach sinks for
// streaming export, or snapshot it for the ring buffer's recent history.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Metrics returns the engine's metrics registry (never nil): latency
// histograms per pipeline operation plus event counters, renderable as
// JSON or Prometheus text exposition format.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// defaultEvaluators returns the construction-time determinant ladder.
func (e *Engine) defaultEvaluators() []DeterminantEvaluator { return e.evaluators }

// Workers returns the engine's default RankSites fan-out width.
func (e *Engine) Workers() int { return e.workers }

// RetryPolicy returns the engine's transient-fault retry policy.
func (e *Engine) RetryPolicy() fault.RetryPolicy { return e.retry }

// SiteLock returns the registry's serialization lock for a site name,
// creating it on first use. Everything that mutates a site's filesystem or
// environment (stack activation, staging, probe runs) must run under it
// when the engine — or the registry — is shared across goroutines.
func (e *Engine) SiteLock(name string) *sync.Mutex {
	return e.sites.SiteLock(name)
}

// contentHash returns the hex SHA-256 of a binary image — the BDC cache key
// and the unique component of derived staging directories.
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Describe is the memoized BDC: identical binary content described under
// the same name returns the registry-cached description, and with a store
// configured a restarted process rehydrates the record instead of
// re-parsing. The returned description is shared — callers must treat it
// as immutable. data is hashed on every call: the bytes are the caller's
// (server uploads are untrusted), so their digest cannot be remembered.
// Binaries on a site's filesystem go through DescribeFile, which reuses
// the filesystem's memoized digest.
func (e *Engine) Describe(ctx context.Context, data []byte, name string) (*BinaryDescription, error) {
	return e.describe(ctx, data, name, "")
}

// DescribeFile is Describe for a binary on a site's filesystem, named by
// its path. The content key comes from the filesystem's per-file digest
// memo, so an unchanged file is hashed once however often it is described.
// It also returns the image, which aliases the site's file storage and
// must be treated as read-only.
func (e *Engine) DescribeFile(ctx context.Context, site *sitemodel.Site, path string) (*BinaryDescription, []byte, error) {
	data, hash, err := readHashed(site, path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading %s: %w", ErrBadBinary, path, err)
	}
	desc, err := e.describe(ctx, data, path, hash)
	if err != nil {
		return nil, nil, err
	}
	return desc, data, nil
}

// readHashed reads a site file through the filesystem's digest memo: data
// aliases the file's immutable storage and hash is its hex SHA-256 (the
// same key contentHash would compute).
func readHashed(site *sitemodel.Site, path string) (data []byte, hash string, err error) {
	data, sum, err := site.FS().ReadFileDigest(path)
	if err != nil {
		return nil, "", err
	}
	return data, hex.EncodeToString(sum[:]), nil
}

// describe is the BDC behind Describe and DescribeFile. hash is data's hex
// SHA-256 when the caller already knows it (a filesystem digest), or ""
// to hash data here, inside the span.
func (e *Engine) describe(ctx context.Context, data []byte, name, hash string) (*BinaryDescription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := e.tracer.Start(obs.OpDescribe,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithBinary(name))
	if hash == "" {
		hash = contentHash(data)
	}
	if v, ok := e.sites.LookupDescription(hash, name); ok {
		sp.Event(obs.EvCache, obs.AttrComponent, "bdc", obs.AttrKey, name,
			obs.AttrHit, "true", obs.AttrSource, "registry")
		sp.End(nil)
		return v.(*BinaryDescription), nil
	}
	if desc, ok := e.loadDescription(hash, name); ok {
		e.sites.StoreDescription(hash, name, desc)
		sp.Event(obs.EvCache, obs.AttrComponent, "bdc", obs.AttrKey, name,
			obs.AttrHit, "true", obs.AttrSource, "store")
		sp.End(nil)
		return desc, nil
	}
	sp.Event(obs.EvCache, obs.AttrComponent, "bdc", obs.AttrKey, name, obs.AttrHit, "false")
	desc, err := describeBytes(data, name, hash)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	e.sites.StoreDescription(hash, name, desc)
	e.persistDescription(desc)
	sp.End(nil)
	return desc, nil
}

// siteFingerprint condenses everything discovery depends on into a cheap
// comparison value: the environment variables (stack activation mutates
// PATH/LD_LIBRARY_PATH/LOADEDMODULES through envmgmt) and the filesystem
// mutation generation (module files, installed libraries, staged copies).
func siteFingerprint(site *sitemodel.Site) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], site.EnvFingerprint())
	binary.LittleEndian.PutUint64(buf[8:], site.FS().Generation())
	h.Write(buf[:])
	return h.Sum64()
}

// Discover is the memoized EDC: repeat surveys of an unchanged site return
// the registry-cached environment description, and with a store configured
// a restarted process rehydrates the persisted survey instead of
// re-running discovery. The cache invalidates whenever the site's
// environment variables or filesystem change — loading a stack through
// envmgmt, staging libraries, or installing software all produce a fresh
// survey. The returned description is shared and must be treated as
// immutable.
func (e *Engine) Discover(ctx context.Context, site *sitemodel.Site) (*EnvironmentDescription, error) {
	env, _, err := e.discoverCached(ctx, site)
	return env, err
}

// discoverCached is Discover plus a cache-hit indicator (the phase runners
// report cached surveys at a fraction of the simulated cost). The lookup
// is traced as a registry span; an OpDiscover span is emitted only when a
// real survey runs, so "zero discover spans" is the observable proof that
// a process rehydrated instead of re-surveying.
func (e *Engine) discoverCached(ctx context.Context, site *sitemodel.Site) (*EnvironmentDescription, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	_ = e.sites.Register(site)
	fp := siteFingerprint(site)
	lsp := e.tracer.Start(obs.OpRegistry,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithSite(site.Name))
	if v, ok := e.sites.LookupSurvey(site, fp); ok {
		lsp.Event(obs.EvCache, obs.AttrComponent, "edc", obs.AttrKey, site.Name,
			obs.AttrHit, "true", obs.AttrSource, "registry")
		lsp.End(nil)
		return v.(*EnvironmentDescription), true, nil
	}
	if env, ok := e.loadSurvey(site, fp); ok {
		e.sites.StoreSurvey(site, fp, env)
		lsp.Event(obs.EvCache, obs.AttrComponent, "edc", obs.AttrKey, site.Name,
			obs.AttrHit, "true", obs.AttrSource, "store")
		lsp.End(nil)
		return env, true, nil
	}
	lsp.Event(obs.EvCache, obs.AttrComponent, "edc", obs.AttrKey, site.Name, obs.AttrHit, "false")
	lsp.End(nil)

	sp := e.tracer.Start(obs.OpDiscover,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithSite(site.Name))
	env, err := e.surveySite(obs.ContextWithSpan(ctx, sp), site)
	if err != nil {
		sp.End(err)
		return nil, false, err
	}
	sp.End(nil)
	e.sites.StoreSurvey(site, fp, env)
	e.persistSurvey(site, fp, env)
	return env, false, nil
}

// InvalidateSite drops a site's cached environment description from the
// registry and, when a store is configured, deletes the persisted survey
// record. Normal mutations are detected by fingerprint; this exists for
// callers that manage site state outside the site's filesystem and
// environment.
func (e *Engine) InvalidateSite(name string) {
	e.sites.Invalidate(name)
	if e.store != nil {
		_ = e.store.Delete(KindSurvey, name)
	}
}

// Evaluate runs the Target Evaluation Component through the engine's
// determinant registry (or opts.Evaluators when set): each registered
// evaluator records its determinant's outcome on the prediction, and a Fail
// gates off the rest — the paper's cheap-checks-first ladder. appBytes may
// be nil when a bundle carries the description; the shared-library
// determinant reconstructs a synthetic probe image from the description.
//
// The caller must hold SiteLock(site.Name) when the site is shared across
// goroutines; Evaluate temporarily mutates the site environment while
// testing candidate stacks and stages library copies when resolving.
//
// When an evaluator errors, Evaluate returns the partial prediction built
// so far (Ready=false, with the determinant trail up to the failure)
// alongside the error, so callers ranking many sites can keep the trail
// for diagnosis instead of discarding the whole assessment.
func (e *Engine) Evaluate(ctx context.Context, desc *BinaryDescription, appBytes []byte, env *EnvironmentDescription, site *sitemodel.Site, opts EvalOptions) (*Prediction, error) {
	if desc == nil || env == nil || site == nil {
		return nil, fmt.Errorf("%w: Evaluate requires a description, environment, and site", ErrNoEnvironment)
	}
	return e.Predict(ctx, EvalRequest{
		Desc:    desc,
		Binary:  appBytes,
		Env:     env,
		Site:    site,
		Options: opts,
	})
}

// compile-time proof that the production registry satisfies the engine's
// state-layer contract.
var _ SiteRegistry = (*registry.Registry)(nil)
