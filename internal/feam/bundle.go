package feam

import (
	"fmt"

	"feam/internal/libver"
	"feam/internal/toolchain"
)

// Bundle is the output of FEAM's source phase: everything a target phase
// needs from the guaranteed execution environment, copied once per
// application binary and shipped to each target site. Running both phases
// also means the application binary itself need not be present at a target
// site to form a prediction.
type Bundle struct {
	// App is the BDC description of the application binary.
	App *BinaryDescription
	// AppBytes optionally carries the binary itself (needed only when the
	// target phase should also stage the application for execution). A
	// source phase sets it to an alias of the source site's file storage,
	// not a copy: treat it as read-only.
	AppBytes []byte

	// Libs are the gathered shared-library copies (everything the
	// application links except the C library and loader).
	Libs []*LibraryCopy

	// MPIHello is the MPI "hello world" compiled at the source site with
	// the application's stack; running it at a target site under a
	// candidate stack is the extended compatibility test.
	MPIHello *toolchain.Artifact
	// SerialHello is the non-MPI probe for basic environment checks.
	SerialHello *toolchain.Artifact

	// SourceSite, SourceGlibc and SourceStack record the guaranteed
	// environment's identity.
	SourceSite  string
	SourceGlibc libver.Version
	SourceStack string

	// GatherNotes carries the library-collection diagnostics.
	GatherNotes *GatherResult
}

// FindLibrary returns the bundled copy satisfying a NEEDED name, or nil.
// Lookup tries the exact name first, then soname-convention compatibility
// (same stem, same major version).
func (b *Bundle) FindLibrary(name string) *LibraryCopy {
	for _, lc := range b.Libs {
		if lc.Name == name {
			return lc
		}
	}
	want, err := libver.ParseSoname(name)
	if err != nil {
		return nil
	}
	for _, lc := range b.Libs {
		have, err := libver.ParseSoname(lc.Name)
		if err != nil {
			continue
		}
		if have.SatisfiesNeeded(want) {
			return lc
		}
	}
	return nil
}

// Size returns the total bundle payload in bytes (library copies, probe
// binaries, and the application when included) — the quantity the paper
// reports averaging 45 MB per site across its whole test set.
func (b *Bundle) Size() int {
	total := len(b.AppBytes)
	for _, lc := range b.Libs {
		total += len(lc.Data)
	}
	if b.MPIHello != nil {
		total += b.MPIHello.Size()
	}
	if b.SerialHello != nil {
		total += b.SerialHello.Size()
	}
	return total
}

// Summary renders a one-line-per-item bundle listing.
func (b *Bundle) Summary() string {
	out := fmt.Sprintf("bundle for %s from %s (stack %s, glibc %s): %d libraries, %d bytes\n",
		b.App.Name, b.SourceSite, b.SourceStack, b.SourceGlibc, len(b.Libs), b.Size())
	for _, lc := range b.Libs {
		out += fmt.Sprintf("  %s (from %s, requires glibc %s)\n", lc.Name, lc.OriginPath, lc.Desc.RequiredGlibc)
	}
	return out
}
