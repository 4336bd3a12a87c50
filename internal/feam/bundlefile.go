package feam

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

func elfVerNeed(file string, versions []string) elfimg.VerNeed {
	return elfimg.VerNeed{File: file, Versions: versions}
}

// Bundle wire format. The paper: "The output from a source phase is bundled
// for the user and must be copied to each target site if it is to be used
// in a target phase." The format is a self-contained archive:
//
//	magic "FEAMBNDL" | format version u16 | section count u32
//	per section: tag u8 | name length u16 | name | body length u32 | body
//	trailer: CRC-32 (IEEE) of everything before it
//
// Section tags: 'M' metadata (key=value lines), 'D' application
// description, 'L' library copy (name = NEEDED name; body = attrs block +
// description + raw ELF), 'H' hello artifact, 'A' application binary.
const (
	bundleMagic   = "FEAMBNDL"
	bundleVersion = 1
)

const (
	secMeta        = 'M'
	secDescription = 'D'
	secLibrary     = 'L'
	secHello       = 'H'
	secAppBinary   = 'A'
)

// EncodeBundle serializes a bundle to its portable archive form.
func EncodeBundle(b *Bundle) ([]byte, error) {
	if b == nil || b.App == nil {
		return nil, fmt.Errorf("%w: cannot encode an empty bundle", ErrBadBundle)
	}
	var sections []section

	meta := fmt.Sprintf("source-site=%s\nsource-glibc=%s\nsource-stack=%s\n",
		b.SourceSite, b.SourceGlibc, b.SourceStack)
	sections = append(sections, section{tag: secMeta, name: "meta", body: []byte(meta)})

	appDesc, err := encodeDescription(b.App)
	if err != nil {
		return nil, err
	}
	sections = append(sections, section{tag: secDescription, name: b.App.Name, body: appDesc})

	for _, lc := range b.Libs {
		body, err := encodeLibraryCopy(lc)
		if err != nil {
			return nil, err
		}
		sections = append(sections, section{tag: secLibrary, name: lc.Name, body: body})
	}
	if b.MPIHello != nil {
		body, err := encodeArtifact(b.MPIHello)
		if err != nil {
			return nil, err
		}
		sections = append(sections, section{tag: secHello, name: "mpi-hello", body: body})
	}
	if b.SerialHello != nil {
		body, err := encodeArtifact(b.SerialHello)
		if err != nil {
			return nil, err
		}
		sections = append(sections, section{tag: secHello, name: "serial-hello", body: body})
	}
	if len(b.AppBytes) > 0 {
		sections = append(sections, section{tag: secAppBinary, name: b.App.Name, body: b.AppBytes})
	}

	var out bytes.Buffer
	out.WriteString(bundleMagic)
	writeU16(&out, bundleVersion)
	writeU32(&out, uint32(len(sections)))
	for _, s := range sections {
		out.WriteByte(s.tag)
		if len(s.name) > 0xffff {
			return nil, fmt.Errorf("%w: section name too long", ErrBadBundle)
		}
		writeU16(&out, uint16(len(s.name)))
		out.WriteString(s.name)
		writeU32(&out, uint32(len(s.body)))
		out.Write(s.body)
	}
	crc := crc32.ChecksumIEEE(out.Bytes())
	writeU32(&out, crc)
	return out.Bytes(), nil
}

// DecodeBundle decodes an archive through the package-level default
// engine. See Engine.DecodeBundle.
func DecodeBundle(data []byte) (*Bundle, error) {
	return DefaultEngine().DecodeBundle(context.Background(), data)
}

// DecodeBundle parses an archive produced by EncodeBundle, verifying the
// checksum and reconstructing every component. Library descriptions are
// re-derived from the embedded ELF images through this engine (the archive
// stores evidence, not trust, so each image is hashed afresh). The decoded
// byte fields are private copies, independent of data.
func (e *Engine) DecodeBundle(ctx context.Context, data []byte) (*Bundle, error) {
	if len(data) < len(bundleMagic)+2+4+4 {
		return nil, fmt.Errorf("%w: archive too short", ErrBadBundle)
	}
	if string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("%w: not a FEAM bundle", ErrBadBundle)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch (corrupted in transit?)", ErrBadBundle)
	}
	r := &byteReader{data: body, off: len(bundleMagic)}
	version := r.u16()
	if version != bundleVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadBundle, version)
	}
	count := int(r.u32())
	b := &Bundle{}
	for i := 0; i < count; i++ {
		if r.err != nil {
			return nil, fmt.Errorf("%w: truncated archive: %w", ErrBadBundle, r.err)
		}
		tag := r.u8()
		name := string(r.bytes(int(r.u16())))
		secBody := r.bytes(int(r.u32()))
		if r.err != nil {
			return nil, fmt.Errorf("%w: truncated section %d: %w", ErrBadBundle, i, r.err)
		}
		switch tag {
		case secMeta:
			parseBundleMeta(b, string(secBody))
		case secDescription:
			desc, err := decodeDescription(secBody, name)
			if err != nil {
				return nil, err
			}
			b.App = desc
		case secLibrary:
			lc, err := e.decodeLibraryCopy(ctx, secBody, name)
			if err != nil {
				return nil, err
			}
			b.Libs = append(b.Libs, lc)
		case secHello:
			art, err := decodeArtifact(secBody)
			if err != nil {
				return nil, err
			}
			if name == "mpi-hello" {
				b.MPIHello = art
			} else {
				b.SerialHello = art
			}
		case secAppBinary:
			b.AppBytes = append([]byte(nil), secBody...)
		default:
			return nil, fmt.Errorf("%w: unknown section tag %q", ErrBadBundle, tag)
		}
	}
	if b.App == nil {
		return nil, fmt.Errorf("%w: archive lacks an application description", ErrBadBundle)
	}
	return b, nil
}

type section struct {
	tag  byte
	name string
	body []byte
}

func parseBundleMeta(b *Bundle, meta string) {
	for _, line := range bytes.Split([]byte(meta), []byte("\n")) {
		kv := bytes.SplitN(line, []byte("="), 2)
		if len(kv) != 2 {
			continue
		}
		switch string(kv[0]) {
		case "source-site":
			b.SourceSite = string(kv[1])
		case "source-glibc":
			if v, err := libver.ParseVersion(string(kv[1])); err == nil {
				b.SourceGlibc = v
			}
		case "source-stack":
			b.SourceStack = string(kv[1])
		}
	}
}

// encodeDescription stores the fields of a BinaryDescription that cannot be
// re-derived (the name) plus the raw ELF needed to re-derive the rest; for
// the application the bundle may omit the binary, so the description itself
// is serialized as key=value lines.
func encodeDescription(d *BinaryDescription) ([]byte, error) {
	var out bytes.Buffer
	fmt.Fprintf(&out, "name=%s\n", d.Name)
	fmt.Fprintf(&out, "content-hash=%s\n", d.ContentHash)
	fmt.Fprintf(&out, "format=%s\n", d.Format)
	fmt.Fprintf(&out, "isa=%d\n", d.ISA)
	fmt.Fprintf(&out, "bits=%d\n", d.Bits)
	fmt.Fprintf(&out, "type=%d\n", d.Type)
	fmt.Fprintf(&out, "soname=%s\n", d.Soname)
	fmt.Fprintf(&out, "required-glibc=%s\n", glibcOrEmpty(d.RequiredGlibc))
	fmt.Fprintf(&out, "mpi=%s\n", d.MPIImpl)
	fmt.Fprintf(&out, "build-comment=%s\n", d.BuildComment)
	fmt.Fprintf(&out, "build-os=%s\n", d.BuildOS)
	fmt.Fprintf(&out, "build-glibc=%s\n", glibcOrEmpty(d.BuildGlibc))
	for _, n := range d.Needed {
		fmt.Fprintf(&out, "needed=%s\n", n)
	}
	for _, vn := range d.VerNeeds {
		fmt.Fprintf(&out, "verneed=%s", vn.File)
		for _, v := range vn.Versions {
			fmt.Fprintf(&out, ",%s", v)
		}
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

func glibcOrEmpty(v libver.Version) string {
	if v.IsZero() {
		return ""
	}
	return v.String()
}

func decodeDescription(body []byte, name string) (*BinaryDescription, error) {
	d := &BinaryDescription{Name: name}
	for _, line := range bytes.Split(body, []byte("\n")) {
		kv := bytes.SplitN(line, []byte("="), 2)
		if len(kv) != 2 {
			continue
		}
		key, val := string(kv[0]), string(kv[1])
		switch key {
		case "name":
			d.Name = val
		case "content-hash":
			d.ContentHash = val
		case "format":
			d.Format = val
		case "isa":
			fmt.Sscanf(val, "%d", &d.ISA)
		case "bits":
			fmt.Sscanf(val, "%d", &d.Bits)
		case "type":
			fmt.Sscanf(val, "%d", &d.Type)
		case "soname":
			d.Soname = val
		case "required-glibc":
			if val != "" {
				v, err := libver.ParseVersion(val)
				if err != nil {
					return nil, fmt.Errorf("%w: description: %w", ErrBadBundle, err)
				}
				d.RequiredGlibc = v
			}
		case "mpi":
			d.MPIImpl = val
		case "build-comment":
			d.BuildComment = val
		case "build-os":
			d.BuildOS = val
		case "build-glibc":
			if val != "" {
				if v, err := libver.ParseVersion(val); err == nil {
					d.BuildGlibc = v
				}
			}
		case "needed":
			d.Needed = append(d.Needed, val)
		case "verneed":
			parts := bytes.Split([]byte(val), []byte(","))
			if len(parts) >= 1 {
				vn := struct {
					File     string
					Versions []string
				}{File: string(parts[0])}
				for _, p := range parts[1:] {
					vn.Versions = append(vn.Versions, string(p))
				}
				d.VerNeeds = append(d.VerNeeds, elfVerNeed(vn.File, vn.Versions))
			}
		}
	}
	return d, nil
}

// encodeLibraryCopy: attrs block (key=value lines) | u32 attrs length
// prefix | origin path line | raw ELF bytes.
func encodeLibraryCopy(lc *LibraryCopy) ([]byte, error) {
	var attrs bytes.Buffer
	fmt.Fprintf(&attrs, "origin=%s\n", lc.OriginPath)
	akeys := make([]string, 0, len(lc.Attrs))
	for k := range lc.Attrs {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	for _, k := range akeys {
		// Values may contain newlines; quote them.
		fmt.Fprintf(&attrs, "attr:%s=%s\n", k, strconv.Quote(lc.Attrs[k]))
	}
	var out bytes.Buffer
	writeU32(&out, uint32(attrs.Len()))
	out.Write(attrs.Bytes())
	out.Write(lc.Data)
	return out.Bytes(), nil
}

func (e *Engine) decodeLibraryCopy(ctx context.Context, body []byte, name string) (*LibraryCopy, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated library section %q", ErrBadBundle, name)
	}
	attrLen := int(binary.LittleEndian.Uint32(body))
	if 4+attrLen > len(body) {
		return nil, fmt.Errorf("%w: corrupt library section %q", ErrBadBundle, name)
	}
	lc := &LibraryCopy{Name: name}
	for _, line := range bytes.Split(body[4:4+attrLen], []byte("\n")) {
		kv := bytes.SplitN(line, []byte("="), 2)
		if len(kv) != 2 {
			continue
		}
		key, val := string(kv[0]), string(kv[1])
		switch {
		case key == "origin":
			lc.OriginPath = val
		case len(key) > 5 && key[:5] == "attr:":
			if lc.Attrs == nil {
				lc.Attrs = map[string]string{}
			}
			unq, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("%w: library %q: corrupt attribute: %w", ErrBadBundle, name, err)
			}
			lc.Attrs[key[5:]] = unq
		}
	}
	lc.Data = append([]byte(nil), body[4+attrLen:]...)
	desc, err := e.Describe(ctx, lc.Data, name)
	if err != nil {
		return nil, fmt.Errorf("%w: library %q: %w", ErrBadBundle, name, err)
	}
	lc.Desc = desc
	return lc, nil
}

// encodeArtifact stores a probe program: ground-truth header lines then the
// ELF image. The ground truth is simulation bookkeeping that must survive
// the copy (it is a property of the binary's machine code); FEAM's
// prediction logic never reads it.
func encodeArtifact(a *toolchain.Artifact) ([]byte, error) {
	var hdr bytes.Buffer
	fmt.Fprintf(&hdr, "name=%s\n", a.Name)
	fmt.Fprintf(&hdr, "build-site=%s\n", a.Truth.BuildSite)
	fmt.Fprintf(&hdr, "stack=%s\n", a.Truth.StackKey)
	fmt.Fprintf(&hdr, "impl=%s\n", a.Truth.Impl)
	fmt.Fprintf(&hdr, "impl-version=%s\n", a.Truth.ImplVersion)
	fmt.Fprintf(&hdr, "mpi-epoch=%d\n", a.Truth.MPIABIEpoch)
	fmt.Fprintf(&hdr, "mpi-level=%d\n", a.Truth.MPILevel)
	fmt.Fprintf(&hdr, "compiler=%s/%s\n", a.Truth.CompilerFamily, a.Truth.CompilerVersion)
	fmt.Fprintf(&hdr, "feature-level=%d\n", a.Truth.FeatureLevel)
	fmt.Fprintf(&hdr, "build-glibc=%s\n", glibcOrEmpty(a.Truth.BuildGlibc))
	fmt.Fprintf(&hdr, "hello=%v\n", a.Truth.Hello)
	fmt.Fprintf(&hdr, "serial=%v\n", a.Truth.Serial)
	fmt.Fprintf(&hdr, "suite=%d\n", a.Truth.Suite)
	for so, e := range a.Truth.RuntimeEpochs {
		fmt.Fprintf(&hdr, "runtime-epoch=%s,%d\n", so, e)
	}
	var out bytes.Buffer
	writeU32(&out, uint32(hdr.Len()))
	out.Write(hdr.Bytes())
	out.Write(a.Bytes)
	return out.Bytes(), nil
}

func decodeArtifact(body []byte) (*toolchain.Artifact, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated artifact section", ErrBadBundle)
	}
	hdrLen := int(binary.LittleEndian.Uint32(body))
	if 4+hdrLen > len(body) {
		return nil, fmt.Errorf("%w: corrupt artifact section", ErrBadBundle)
	}
	a := &toolchain.Artifact{}
	for _, line := range bytes.Split(body[4:4+hdrLen], []byte("\n")) {
		kv := bytes.SplitN(line, []byte("="), 2)
		if len(kv) != 2 {
			continue
		}
		key, val := string(kv[0]), string(kv[1])
		switch key {
		case "name":
			a.Name = val
		case "build-site":
			a.Truth.BuildSite = val
		case "stack":
			a.Truth.StackKey = val
		case "impl":
			a.Truth.Impl = val
		case "impl-version":
			a.Truth.ImplVersion = val
		case "mpi-epoch":
			fmt.Sscanf(val, "%d", &a.Truth.MPIABIEpoch)
		case "mpi-level":
			fmt.Sscanf(val, "%d", &a.Truth.MPILevel)
		case "compiler":
			parts := bytes.SplitN([]byte(val), []byte("/"), 2)
			if len(parts) == 2 {
				a.Truth.CompilerFamily = string(parts[0])
				a.Truth.CompilerVersion = string(parts[1])
			}
		case "feature-level":
			fmt.Sscanf(val, "%d", &a.Truth.FeatureLevel)
		case "build-glibc":
			if val != "" {
				if v, err := libver.ParseVersion(val); err == nil {
					a.Truth.BuildGlibc = v
				}
			}
		case "hello":
			a.Truth.Hello = val == "true"
		case "serial":
			a.Truth.Serial = val == "true"
		case "suite":
			var s int
			fmt.Sscanf(val, "%d", &s)
			a.Truth.Suite = workload.Suite(s)
		case "runtime-epoch":
			parts := bytes.SplitN([]byte(val), []byte(","), 2)
			if len(parts) == 2 {
				if a.Truth.RuntimeEpochs == nil {
					a.Truth.RuntimeEpochs = map[string]int{}
				}
				var e int
				fmt.Sscanf(string(parts[1]), "%d", &e)
				a.Truth.RuntimeEpochs[string(parts[0])] = e
			}
		}
	}
	a.Bytes = append([]byte(nil), body[4+hdrLen:]...)
	return a, nil
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

type byteReader struct {
	data []byte
	off  int
	err  error
}

func (r *byteReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *byteReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *byteReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail()
		return nil
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("unexpected end of data at offset %d", r.off)
	}
}
