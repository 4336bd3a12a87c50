package feam

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"feam/internal/sitemodel"
)

// SiteRegistry is the engine's in-memory state layer: site registration,
// per-site serialization locks, and the memoized survey and description
// caches. internal/registry provides the sharded production
// implementation; the engine itself holds no cache maps or site tables,
// so any number of engines sharing one SiteRegistry see one coherent
// fleet. Cached values are stored opaquely: surveys are
// *EnvironmentDescription, descriptions are *BinaryDescription.
type SiteRegistry interface {
	Register(site *sitemodel.Site) error
	Site(name string) (*sitemodel.Site, bool)
	SiteLock(name string) *sync.Mutex
	LookupSurvey(site *sitemodel.Site, fingerprint uint64) (any, bool)
	StoreSurvey(site *sitemodel.Site, fingerprint uint64, value any)
	LookupDescription(hash, name string) (any, bool)
	StoreDescription(hash, name string, value any)
	// LookupShard and StoreShard cache one survey-shard walk result
	// (*shardRecord) per (site, shard root), validated by the root's vfs
	// tree stamp: a stamp mismatch — any mutation under the root — is a
	// miss, which is what makes whole-site re-surveys incremental.
	LookupShard(site *sitemodel.Site, root string, stamp uint64) (any, bool)
	StoreShard(site *sitemodel.Site, root string, stamp uint64, value any)
	Invalidate(name string)
}

// Store is the engine's persistence layer: namespaced records a restarted
// process rehydrates instead of re-surveying. Get's ok=false means absent
// or damaged — either way the engine recomputes; err is diagnostic only.
// internal/store provides the versioned, atomic-rename implementation.
type Store interface {
	Put(kind, key string, payload []byte) error
	Get(kind, key string) ([]byte, bool, error)
	List(kind string) ([]string, error)
	Delete(kind, key string) error
}

// Store record namespaces the engine writes.
const (
	// KindSurvey holds one surveyRecord per site name.
	KindSurvey = "survey"
	// KindDescription holds one *BinaryDescription per content hash+name.
	KindDescription = "bdc"
	// KindBundle holds one encoded Bundle per application content hash.
	KindBundle = "bundle"
	// KindSite holds one siteRecord per site name (fleet inventory).
	KindSite = "site"
	// KindShard holds one shardRecord per site name + fnv-hashed shard
	// root, keyed by the root's tree stamp. Stale records are harmless:
	// a stamp mismatch reads as a miss and the shard is re-walked.
	KindShard = "shard"
	// KindSymIndex holds one abicheck.Snapshot per site name, stamped
	// with the env fingerprint + vfs content generation it was built
	// under; stale records read as misses and the index is rebuilt.
	KindSymIndex = "symindex"
)

// surveyRecord is the persisted form of one environment survey: the EDC
// output plus the fingerprint it was computed under, so rehydration only
// succeeds for an unchanged site.
type surveyRecord struct {
	Fingerprint uint64                  `json:"fingerprint"`
	Env         *EnvironmentDescription `json:"env"`
}

// siteRecord is the persisted fleet-inventory entry for one surveyed site.
type siteRecord struct {
	Name       string `json:"name"`
	SystemType string `json:"system_type,omitempty"`
	Arch       string `json:"arch,omitempty"`
	OS         string `json:"os,omitempty"`
	Glibc      string `json:"glibc,omitempty"`
	Cores      int    `json:"cores,omitempty"`
}

// descriptionKey joins the BDC cache key components for the store.
func descriptionKey(hash, name string) string { return hash + "/" + name }

// loadSurvey rehydrates a site's survey from the store when a record
// exists under the exact fingerprint. Absent, stale, or corrupt records
// are all misses.
func (e *Engine) loadSurvey(site *sitemodel.Site, fingerprint uint64) (*EnvironmentDescription, bool) {
	if e.store == nil {
		return nil, false
	}
	payload, ok, _ := e.store.Get(KindSurvey, site.Name)
	if !ok {
		return nil, false
	}
	var rec surveyRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Env == nil {
		return nil, false
	}
	if rec.Fingerprint != fingerprint {
		return nil, false
	}
	return rec.Env, true
}

// persistSurvey writes a site's survey and fleet-inventory records.
// Persistence is best-effort: a store fault never fails the survey that
// produced the data.
func (e *Engine) persistSurvey(site *sitemodel.Site, fingerprint uint64, env *EnvironmentDescription) {
	if e.store == nil {
		return
	}
	if payload, err := json.Marshal(surveyRecord{Fingerprint: fingerprint, Env: env}); err == nil {
		_ = e.store.Put(KindSurvey, site.Name, payload)
	}
	rec := siteRecord{
		Name:       site.Name,
		SystemType: site.SystemType,
		Arch:       site.Arch.CPUName,
		OS:         site.OS.Distro + " " + site.OS.Version,
		Glibc:      site.Glibc.String(),
		Cores:      site.Cores,
	}
	if payload, err := json.Marshal(rec); err == nil {
		_ = e.store.Put(KindSite, site.Name, payload)
	}
}

// loadDescription rehydrates a binary description from the store.
func (e *Engine) loadDescription(hash, name string) (*BinaryDescription, bool) {
	if e.store == nil {
		return nil, false
	}
	payload, ok, _ := e.store.Get(KindDescription, descriptionKey(hash, name))
	if !ok {
		return nil, false
	}
	var desc BinaryDescription
	if err := json.Unmarshal(payload, &desc); err != nil || desc.ContentHash != hash {
		return nil, false
	}
	return &desc, true
}

// persistDescription writes a binary description record (best-effort).
func (e *Engine) persistDescription(desc *BinaryDescription) {
	if e.store == nil {
		return
	}
	if payload, err := json.Marshal(desc); err == nil {
		_ = e.store.Put(KindDescription, descriptionKey(desc.ContentHash, desc.Name), payload)
	}
}

// SaveBundle persists a bundle keyed by its application's content hash so
// a restarted process can skip the source phase. Requires a store.
func (e *Engine) SaveBundle(b *Bundle) error {
	if e.store == nil {
		//lint:ignore faultwrap API misuse by the caller, not a pipeline fault
		return fmt.Errorf("feam: SaveBundle requires an engine with a store (WithStore)")
	}
	if b == nil || b.App == nil || b.App.ContentHash == "" {
		//lint:ignore faultwrap API misuse by the caller, not a pipeline fault
		return fmt.Errorf("feam: SaveBundle requires a bundle with a described application")
	}
	data, err := EncodeBundle(b)
	if err != nil {
		return err
	}
	return e.store.Put(KindBundle, b.App.ContentHash, data)
}

// LoadBundle rehydrates a persisted bundle by application content hash.
// ok=false means no usable record (absent, corrupt, or undecodable).
func (e *Engine) LoadBundle(hash string) (*Bundle, bool, error) {
	if e.store == nil {
		return nil, false, nil
	}
	data, ok, err := e.store.Get(KindBundle, hash)
	if !ok {
		return nil, false, err
	}
	b, derr := e.DecodeBundle(context.Background(), data)
	if derr != nil {
		return nil, false, derr
	}
	return b, true, nil
}

// StoredSites lists the fleet-inventory records persisted by surveys —
// the site names a restarted process knows about before touching any
// site. Without a store the list is empty.
func (e *Engine) StoredSites() ([]string, error) {
	if e.store == nil {
		return nil, nil
	}
	return e.store.List(KindSite)
}

// Registry returns the engine's site-state layer (never nil).
func (e *Engine) Registry() SiteRegistry { return e.sites }

// Store returns the engine's persistence layer (nil unless configured
// with WithStore).
func (e *Engine) Store() Store { return e.store }
