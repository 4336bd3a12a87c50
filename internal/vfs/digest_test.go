package vfs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestDigestMemoInvalidation pins when a file's memoized SHA-256 is kept,
// carried or recomputed. Every step reads the file through ReadFileDigest
// and checks the digest against a fresh hash of the bytes, the number of
// digests computed, and whether the generation advanced.
func TestDigestMemoInvalidation(t *testing.T) {
	v1, v2 := []byte("libmpich.so.1.0 image v1"), []byte("libmpich.so.1.0 image v2")
	type step struct {
		name   string
		mutate func(fs *FS) error
		read   string // path read after the mutation
		want   []byte // content expected there
		hashes uint64 // digests computed by the read
		genUp  bool   // the mutation advances the generation
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"different-bytes rewrite recomputes", []step{
			{"write v2", func(fs *FS) error { return fs.WriteFile("/lib/a.so", v2) }, "/lib/a.so", v2, 1, true},
		}},
		{"identical rewrite inherits", []step{
			{"write v1 again", func(fs *FS) error { return fs.WriteFile("/lib/a.so", bytes.Clone(v1)) }, "/lib/a.so", v1, 0, true},
			{"and again", func(fs *FS) error { return fs.WriteFile("/lib/a.so", v1) }, "/lib/a.so", v1, 0, true},
		}},
		{"rename keeps", []step{
			{"rename", func(fs *FS) error { return fs.Rename("/lib/a.so", "/lib64/b.so") }, "/lib64/b.so", v1, 0, true},
		}},
		{"setattr keeps", []step{
			{"setattr", func(fs *FS) error { return fs.SetAttr("/lib/a.so", "abi-epoch", "3") }, "/lib/a.so", v1, 0, true},
		}},
		{"copy carries", []step{
			{"copy", func(fs *FS) error { return fs.CopyFile("/lib/a.so", "/stage/a.so") }, "/stage/a.so", v1, 0, true},
		}},
		{"remove then recreate recomputes", []step{
			{"remove", func(fs *FS) error { return fs.Remove("/lib/a.so") }, "", nil, 0, true},
			{"recreate", func(fs *FS) error { return fs.WriteFile("/lib/a.so", v1) }, "/lib/a.so", v1, 1, true},
		}},
		{"symlinked read shares the target's memo", []step{
			{"symlink", func(fs *FS) error { return fs.Symlink("a.so", "/lib/a.so.1") }, "/lib/a.so.1", v1, 0, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := New()
			if err := fs.WriteFile("/lib/a.so", v1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := fs.ReadFileDigest("/lib/a.so"); err != nil {
				t.Fatal(err)
			}
			if got := fs.DigestsComputed(); got != 1 {
				t.Fatalf("first read computed %d digests, want 1", got)
			}
			for _, st := range tc.steps {
				gen := fs.Generation()
				if err := st.mutate(fs); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if up := fs.Generation() > gen; up != st.genUp {
					t.Errorf("%s: generation advanced = %v, want %v", st.name, up, st.genUp)
				}
				if st.read == "" {
					continue
				}
				before := fs.DigestsComputed()
				data, sum, err := fs.ReadFileDigest(st.read)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if !bytes.Equal(data, st.want) {
					t.Errorf("%s: content = %q, want %q", st.name, data, st.want)
				}
				if sum != sha256.Sum256(st.want) {
					t.Errorf("%s: digest is not the SHA-256 of the content", st.name)
				}
				if got := fs.DigestsComputed() - before; got != st.hashes {
					t.Errorf("%s: read computed %d digests, want %d", st.name, got, st.hashes)
				}
			}
		})
	}
}

// TestDigestCarriedAcrossFilesystems: CopyFileTo shares the source's
// bytes and digest with the destination filesystem, attributes included.
func TestDigestCarriedAcrossFilesystems(t *testing.T) {
	src, dst := New(), New()
	if err := src.WriteString("/lib/libg2c.so.0", "fortran runtime"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetAttr("/lib/libg2c.so.0", "abi-epoch", "7"); err != nil {
		t.Fatal(err)
	}
	_, want, err := src.ReadFileDigest("/lib/libg2c.so.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyFileTo(dst, "/lib/libg2c.so.0", "/feam/libs/libg2c.so.0"); err != nil {
		t.Fatal(err)
	}
	_, got, err := dst.ReadFileDigest("/feam/libs/libg2c.so.0")
	if err != nil {
		t.Fatal(err)
	}
	if got != want || dst.DigestsComputed() != 0 {
		t.Errorf("copied digest matches = %v, destination hashed %d times; want carried", got == want, dst.DigestsComputed())
	}
	if v, ok := dst.Attr("/feam/libs/libg2c.so.0", "abi-epoch"); !ok || v != "7" {
		t.Error("attributes did not travel with the copy")
	}
}

// TestReadFileDigestFaultInjection: an injected read fault fails
// ReadFileDigest exactly as it fails ReadFile, memo hit or not.
func TestReadFileDigestFaultInjection(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/bin/app", "elf"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.ReadFileDigest("/bin/app"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected EIO")
	var ops []string
	fs.SetOpHook(func(op, path string) error {
		ops = append(ops, op+" "+path)
		return boom
	})
	_, plainErr := fs.ReadFile("/bin/app")
	data, sum, err := fs.ReadFileDigest("/bin/app")
	if !errors.Is(err, boom) || data != nil || sum != ([32]byte{}) {
		t.Fatalf("ReadFileDigest under fault = %q, %x, %v; want no data and the injected error", data, sum, err)
	}
	if err.Error() != plainErr.Error() {
		t.Errorf("ReadFileDigest error %q differs from ReadFile error %q", err, plainErr)
	}
	if len(ops) != 2 || ops[0] != ops[1] {
		t.Errorf("hook saw %v, want the same read op twice", ops)
	}
}

// TestReadFileDigestAllocs: a memo-hit digest read of a clean,
// symlink-free path allocates nothing. make bench-smoke runs this gate.
func TestReadFileDigestAllocs(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/opt/mpich2-1.2/lib/libmpich.so.1.2", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.ReadFileDigest("/opt/mpich2-1.2/lib/libmpich.so.1.2"); err != nil {
		t.Fatal(err)
	}
	var sink byte
	allocs := testing.AllocsPerRun(200, func() {
		data, sum, err := fs.ReadFileDigest("/opt/mpich2-1.2/lib/libmpich.so.1.2")
		if err != nil {
			panic(err)
		}
		sink ^= data[0] ^ sum[0]
	})
	if allocs != 0 {
		t.Fatalf("memo-hit ReadFileDigest allocated %.1f times per run, want 0", allocs)
	}
	if fs.DigestsComputed() != 1 {
		t.Fatalf("computed %d digests, want 1", fs.DigestsComputed())
	}
	_ = sink
}

// TestConcurrentDigestReads: many goroutines reading one file's digest
// at once (first read included) all see the same digest, which is
// computed exactly once. Run under -race.
func TestConcurrentDigestReads(t *testing.T) {
	fs := New()
	content := bytes.Repeat([]byte("ELF"), 1<<16)
	if err := fs.WriteFile("/lib/libc.so.6", content); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(content)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sum, err := fs.ReadFileDigest("/lib/libc.so.6")
				if err == nil && sum != want {
					err = fmt.Errorf("digest %x, want %x", sum, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fs.DigestsComputed(); got != 1 {
		t.Errorf("computed %d digests, want exactly 1", got)
	}
}

// TestLookupFastPathMatchesGeneralResolver: the allocation-free walk for
// clean, symlink-free paths resolves every path to the same node, the
// same canonical path and the same error as the general resolver.
func TestLookupFastPathMatchesGeneralResolver(t *testing.T) {
	fs := New()
	for _, p := range []string{"/usr/lib64/libm.so.6", "/etc/ld.so.conf", "/opt/x/lib/liby.so"} {
		if err := fs.WriteString(p, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Symlink("/usr/lib64", "/lib64"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("libm.so.6", "/usr/lib64/libm.so"); err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"/", "/usr", "/usr/lib64", "/usr/lib64/libm.so.6", "/usr/lib64/libm.so",
		"/lib64/libm.so.6", "/lib64", "/etc/ld.so.conf/x", "/etc/missing",
		"/missing/deeper", "/usr//lib64", "/usr/lib64/", "/usr/./lib64",
		"/usr/lib64/../lib64/libm.so.6", "/opt/x/lib/liby.so", "usr/lib64", "/..",
	}
	for _, p := range paths {
		for _, follow := range []bool{true, false} {
			n, rp, err := fs.lookup(p, follow)
			var gn *node
			var grp string
			var gerr error
			if cp, cerr := clean(p); cerr != nil {
				gerr = cerr
			} else {
				gn, grp, gerr = fs.lookupFrom(fs.root, "/", splitPath(cp), follow, 0)
			}
			if n != gn || rp != grp || !errors.Is(err, gerr) && !(err == nil && gerr == nil) {
				t.Errorf("lookup(%q, %v) = %p %q %v; general resolver %p %q %v", p, follow, n, rp, err, gn, grp, gerr)
			}
		}
	}
}
