package feam_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

// indiaOnly builds a private one-site testbed, so filesystem digest
// counts are not shared with other tests.
func indiaOnly(t *testing.T) *sitemodel.Site {
	t.Helper()
	for _, spec := range testbed.DefaultSpecs() {
		if spec.Name == "india" {
			tb, err := testbed.BuildFrom([]testbed.SiteSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			return tb.ByName["india"]
		}
	}
	t.Fatal("no india spec")
	return nil
}

// spanCount is a sink counting ended spans of one operation.
type spanCount struct {
	op string
	n  int
}

func (c *spanCount) SpanStarted(*obs.Span)          {}
func (c *spanCount) SpanEvent(*obs.Span, obs.Event) {}
func (c *spanCount) SpanEnded(s *obs.Span) {
	if s.Op == c.op {
		c.n++
	}
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSourcePhaseHashesOnce: a repeated source phase over an unchanged
// site computes zero digests (binary and gathered libraries alike), the
// bundle's byte fields alias the site's file storage, every content key is
// the hex SHA-256 of its image, and the library descriptions are traced
// through the calling engine.
func TestSourcePhaseHashesOnce(t *testing.T) {
	ctx := context.Background()
	india := indiaOnly(t)
	tb := &testbed.Testbed{Sites: []*sitemodel.Site{india}, ByName: map[string]*sitemodel.Site{"india": india}}
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	const path = "/home/user/cg.digest"
	if err := india.FS().WriteFile(path, art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := india.SnapshotEnv()
	defer india.RestoreEnv(snap)
	if err := testbed.ActivateStack(india, "openmpi-1.4-gnu"); err != nil {
		t.Fatal(err)
	}

	describes := &spanCount{op: obs.OpDescribe}
	eng := feam.New()
	eng.Tracer().AddSink(describes)
	first, _, err := eng.RunSourcePhase(ctx, testConfig("source", path), india, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashed := india.FS().DigestsComputed()
	if hashed == 0 || len(first.Libs) == 0 {
		t.Fatalf("first source phase computed %d digests over %d libraries", hashed, len(first.Libs))
	}
	if describes.n != 1+len(first.Libs) {
		t.Errorf("engine traced %d describe spans, want one for the binary and one per library (%d)", describes.n, 1+len(first.Libs))
	}

	second, _, err := eng.RunSourcePhase(ctx, testConfig("source", path), india, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := india.FS().DigestsComputed(); got != hashed {
		t.Errorf("second source phase computed %d digests, want 0", got-hashed)
	}
	gathered, err := eng.GatherLibraries(ctx, india, second.AppBytes, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := india.FS().DigestsComputed(); got != hashed {
		t.Errorf("GatherLibraries over an unchanged site computed %d digests, want 0", got-hashed)
	}

	stored, err := india.FS().ReadFileShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if &second.AppBytes[0] != &stored[0] || &first.AppBytes[0] != &stored[0] {
		t.Error("Bundle.AppBytes does not alias the site's file storage")
	}
	if second.App.ContentHash != hexSHA256(art.Bytes) {
		t.Errorf("binary content key %s is not the hex SHA-256 of the image", second.App.ContentHash)
	}
	if len(gathered.Copies) != len(first.Libs) {
		t.Fatalf("gathered %d copies, first bundle has %d", len(gathered.Copies), len(first.Libs))
	}
	for i, lc := range gathered.Copies {
		origin, err := india.FS().ReadFileShared(lc.OriginPath)
		if err != nil {
			t.Fatal(err)
		}
		if &lc.Data[0] != &origin[0] || &first.Libs[i].Data[0] != &origin[0] {
			t.Errorf("%s: LibraryCopy.Data does not alias %s", lc.Name, lc.OriginPath)
		}
		if lc.Desc.ContentHash != hexSHA256(lc.Data) {
			t.Errorf("%s: content key %s is not the hex SHA-256 of the image", lc.Name, lc.Desc.ContentHash)
		}
	}
}

// TestDescribeFileLoadsStoredRecords: descriptions persisted by the
// hashing path (Describe over bytes, which keys records exactly as earlier
// releases did) are found by the digest path (DescribeFile) of a restarted
// engine: same hex SHA-256 key, store hit, no re-parse.
func TestDescribeFileLoadsStoredRecords(t *testing.T) {
	ctx := context.Background()
	stateFS := vfs.New()
	st1, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	img := plainBinary()
	const path = "/home/user/app.stored"
	if _, err := feam.New(feam.WithStore(st1)).Describe(ctx, img, path); err != nil {
		t.Fatal(err)
	}
	keys, err := st1.List(feam.KindDescription)
	if err != nil || len(keys) != 1 || keys[0] != hexSHA256(img)+"/"+path {
		t.Fatalf("stored description keys = %v, %v; want [<hex sha256>/%s]", keys, err, path)
	}

	site := minimalSite(t)
	if err := site.FS().WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	eng := feam.New(feam.WithStore(st2), feam.WithRegistry(registry.New()))
	desc, data, err := eng.DescribeFile(ctx, site, path)
	if err != nil {
		t.Fatal(err)
	}
	if desc.ContentHash != hexSHA256(img) || string(data) != string(img) {
		t.Fatalf("DescribeFile key %s, %d bytes; want the image's hex SHA-256", desc.ContentHash, len(data))
	}
	if st2.Stats().Loads == 0 {
		t.Fatal("DescribeFile did not consult the store")
	}
	var fromStore bool
	for _, sp := range eng.Tracer().Snapshot() {
		for _, ev := range sp.Events {
			if sp.Op == obs.OpDescribe && ev.Attrs[obs.AttrSource] == "store" {
				fromStore = true
			}
		}
	}
	if !fromStore {
		t.Error("DescribeFile re-parsed instead of loading the stored record")
	}
}
