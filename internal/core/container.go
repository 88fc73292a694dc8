package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"seoracle/internal/geom"
	"seoracle/internal/terrain"
)

// Container format: the one on-disk envelope every index kind serializes
// into, so a file is self-describing and Load can return the right concrete
// type. Layout (all integers little-endian):
//
//	magic   [4]byte  "SEDX"
//	version uint16   (currently 1)
//	kind    uint16   (Kind tag: se / a2a / dynamic)
//	nsect   uint32   (number of sections that follow)
//	nsect × { id uint32, length uint64, payload [length]byte }
//	crc32   uint32   (IEEE, over every byte from magic through the last payload)
//
// Sections are length-framed so unknown ids can be skipped by future
// readers, and the CRC footer rejects truncated or bit-flipped files before
// any kind-specific decoding trusts the payloads.
const (
	containerMagic   = "SEDX"
	containerVersion = 1

	// maxContainerSections bounds the section count a header may declare;
	// the scalar kinds write at most six, and a multi container writes one
	// manifest plus at most maxShardMembers member sections.
	maxContainerSections = 64
)

// Section ids. The id space is shared across kinds; each kind's decoder
// demands the sections it needs and ignores the rest.
const (
	secOracle    uint32 = 1  // SE oracle body (tree + pairs)
	secPoints    uint32 = 2  // indexed POI surface points (for /v1/nearest)
	secMesh      uint32 = 3  // terrain mesh: vertices + faces
	secSites     uint32 = 4  // site surface points (KindA2A)
	secFaceSites uint32 = 5  // per-face site id lists (KindA2A)
	secSiteMeta  uint32 = 6  // local-regime threshold / spacing / density (KindA2A)
	secDynState  uint32 = 7  // dynamic oracle state: POIs, tombstones, overflow
	secManifest  uint32 = 8  // multi-index member manifest (KindMulti)
	secFlat      uint32 = 9  // flat zero-parse oracle body (KindFlat; see flat.go)
	secHierarchy uint32 = 10 // per-member LOD level / parent / POI count (KindMulti; see hierarchy.go)
	secPortals   uint32 = 11 // boundary-portal links between fine members (KindMulti; see hierarchy.go)

	// secMemberBase is the first member-body section id of a KindMulti
	// container: member i's own tagged container bytes live in section
	// secMemberBase+i, in manifest order.
	secMemberBase uint32 = 64
)

// section is one length-framed payload queued for writing. Payloads are
// streamed: length is declared up front (every section layout is a fixed
// function of the index's logical sizes) and write produces exactly that
// many bytes into the container, so serializing never materializes a
// section in memory. bytesSection adapts small precomputed payloads.
type section struct {
	id     uint32
	length uint64
	write  func(w io.Writer) error
}

func bytesSection(id uint32, payload []byte) section {
	return section{id: id, length: uint64(len(payload)), write: func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}}
}

// countingWriter tracks how many bytes a section writer produced, so a
// declared-length mismatch is an immediate error instead of a corrupt file.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// containerWriter streams a container envelope section by section: the
// header goes out first, then each section as it becomes available, then the
// CRC footer. It exists so a producer can emit sections it builds one at a
// time (the streaming tiled build) without ever materializing the whole
// container — writeContainer is the buffered-list convenience over it, and
// both produce byte-identical envelopes for the same section sequence.
type containerWriter struct {
	bw    *bufio.Writer
	crc   hash.Hash32
	mw    io.Writer // tee: bw + crc
	nsect int       // declared in the header
	seen  int       // sections written so far
}

// newContainerWriter writes the envelope header (magic, version, kind, the
// declared section count) and returns a writer ready for exactly nsect
// section calls followed by finish.
func newContainerWriter(w io.Writer, kind Kind, nsect int) (*containerWriter, error) {
	if nsect < 0 || nsect > maxContainerSections {
		return nil, fmt.Errorf("core: container would hold %d sections (max %d)", nsect, maxContainerSections)
	}
	cw := &containerWriter{bw: bufio.NewWriter(w), crc: crc32.NewIEEE(), nsect: nsect}
	cw.mw = io.MultiWriter(cw.bw, cw.crc)
	if _, err := cw.mw.Write([]byte(containerMagic)); err != nil {
		return nil, err
	}
	if err := binary.Write(cw.mw, binary.LittleEndian, []uint16{containerVersion, uint16(kind)}); err != nil {
		return nil, err
	}
	if err := binary.Write(cw.mw, binary.LittleEndian, uint32(nsect)); err != nil {
		return nil, err
	}
	return cw, nil
}

// section streams one length-framed section into the envelope, enforcing the
// declared length and the declared section count.
func (cw *containerWriter) section(s section) error {
	if cw.seen >= cw.nsect {
		return fmt.Errorf("core: container declared %d sections, writing more", cw.nsect)
	}
	cw.seen++
	if err := binary.Write(cw.mw, binary.LittleEndian, s.id); err != nil {
		return err
	}
	if err := binary.Write(cw.mw, binary.LittleEndian, s.length); err != nil {
		return err
	}
	c := &countingWriter{w: cw.mw}
	if err := s.write(c); err != nil {
		return err
	}
	if c.n != s.length {
		return fmt.Errorf("core: section %d wrote %d bytes, declared %d", s.id, c.n, s.length)
	}
	return nil
}

// finish writes the CRC footer and flushes. The section count must match the
// header's declaration — a short container would fail its own parse.
func (cw *containerWriter) finish() error {
	if cw.seen != cw.nsect {
		return fmt.Errorf("core: container declared %d sections, wrote %d", cw.nsect, cw.seen)
	}
	if err := binary.Write(cw.bw, binary.LittleEndian, cw.crc.Sum32()); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// writeContainer writes the envelope around the given sections.
func writeContainer(w io.Writer, kind Kind, secs []section) error {
	cw, err := newContainerWriter(w, kind, len(secs))
	if err != nil {
		return err
	}
	for _, s := range secs {
		if err := cw.section(s); err != nil {
			return err
		}
	}
	return cw.finish()
}

// Quarantined describes one member of a multi container that a tolerant
// load (LoadOptions.Tolerant) could not decode: its manifest identity (name,
// kind, bbox — the manifest survived, only the member body is damaged) and
// the decode error. The serving layer answers requests addressing a
// quarantined member with 503 and reports the names through /readyz and
// /statsz.
type Quarantined struct {
	Name string
	Kind Kind
	BBox BBox2D
	Err  error
}

// LoadOptions selects how Load and LoadBytesOpts treat a multi container;
// for every other kind both options are ignored.
type LoadOptions struct {
	// Tolerant quarantines members whose bodies fail to decode (or, under
	// MemBudget, whose envelopes fail to parse) instead of failing the load;
	// the healthy rest are served. Damage to the envelope framing, the
	// manifest, the hierarchy or the shared mesh stays fatal: without them
	// there is no member identity to quarantine under.
	Tolerant bool
	// MemBudget, when positive, loads members lazily: each member stays a
	// byte range of the image until first touched, and a resident-set LRU
	// evicts decoded members once their summed heap bytes exceed the
	// budget. The budget bounds decoded heap bytes; a mapped image itself
	// is OS-reclaimable and is not charged against it.
	MemBudget int64
}

// Load reads a whole container image from r and decodes it through
// LoadBytesOpts, after one stream-only check: the envelope CRC footer must
// match, unless opt.MemBudget > 0 (a budgeted load must not hash members it
// never touches). Structural damage — magic, version, section count,
// truncation — is reported ahead of a CRC mismatch. A tolerant load of a
// multi container accepts a mismatch only when a quarantined member
// explains it; otherwise the corruption sits in unverified shared state
// (manifest, shared mesh, a flat member's content) and the load fails
// rather than serve silently wrong routing.
func Load(r io.Reader, opt LoadOptions) (DistanceIndex, []Quarantined, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading index: %w", err)
	}
	if opt.MemBudget > 0 {
		return LoadBytesOpts(data, nil, opt)
	}
	kind, _, err := sliceContainer(data)
	if err != nil {
		return nil, nil, err
	}
	crcErr := verifyImageCRC(data)
	if crcErr != nil && !(opt.Tolerant && kind == KindMulti) {
		return nil, nil, crcErr
	}
	idx, quarantined, err := LoadBytesOpts(data, nil, opt)
	if err == nil && crcErr != nil && len(quarantined) == 0 {
		return nil, nil, fmt.Errorf("core: %w (corruption outside any member body; refusing to serve)", crcErr)
	}
	return idx, quarantined, err
}

// LoadBytesOpts decodes an index from an in-memory container image —
// typically a memory-mapped file — slicing instead of copying wherever the
// kind allows. keep is an arbitrary value retained by any zero-copy index
// that aliases data (a mapping owner carrying a finalizer, say), so the
// backing memory outlives every index reading it; pass nil for plain heap
// buffers.
//
// CRC policy, per kind: a flat container skips the whole-file CRC — paying
// an O(n) checksum would re-linearize the O(1) cold start the layout exists
// for; its header CRC plus structural validation (flat.go) stand in. Other
// scalar kinds decode every byte anyway, so the footer is verified. A multi
// container skips the outer footer and applies the same rule member-wise,
// so flat members stay O(1).
func LoadBytesOpts(data []byte, keep any, opt LoadOptions) (DistanceIndex, []Quarantined, error) {
	return decodeImage(data, keep, opt)
}

// decodeImage is the one container decoder: it slices the envelope of an
// in-memory image, applies the per-kind CRC policy of LoadBytesOpts and
// dispatches on the kind tag. Multi members come back through it (see
// loadMember), so the same policy holds member-wise.
func decodeImage(data []byte, keep any, opt LoadOptions) (DistanceIndex, []Quarantined, error) {
	kind, secs, err := sliceContainer(data)
	if err != nil {
		return nil, nil, err
	}
	if kind != KindFlat && kind != KindMulti {
		if err := verifyImageCRC(data); err != nil {
			return nil, nil, err
		}
	}
	var idx DistanceIndex
	var quarantined []Quarantined
	switch kind {
	case KindSE:
		idx, err = decodeSEContainer(secs)
	case KindA2A:
		idx, err = decodeA2AContainer(secs)
	case KindDynamic:
		idx, err = decodeDynamicContainer(secs)
	case KindFlat:
		idx, err = decodeFlatSecs(secs, keep)
	case KindMulti:
		idx, quarantined, err = decodeMulti(secs, keep, opt)
	default:
		return nil, nil, fmt.Errorf("core: unknown index kind tag %d (known: se=1, a2a=2, dynamic=3, multi=4, flat=5)", uint16(kind))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoding %s container: %w", kind, err)
	}
	return idx, quarantined, nil
}

// sliceContainer parses the envelope from an in-memory image without copying
// payloads (the returned sections alias data) and without touching the CRC
// footer — the caller decides whether an O(n) checksum is worth paying. The
// 12-byte header is checked before the footer is required, so a bad section
// count is reported as such even on an image that ends after the header.
func sliceContainer(data []byte) (Kind, map[uint32][]byte, error) {
	if len(data) < 12 {
		return 0, nil, fmt.Errorf("core: container header truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != containerMagic {
		return 0, nil, fmt.Errorf("core: bad container magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != containerVersion {
		return 0, nil, fmt.Errorf("core: unsupported container version %d (this build reads %d)", version, containerVersion)
	}
	kind := Kind(binary.LittleEndian.Uint16(data[6:]))
	nsect := binary.LittleEndian.Uint32(data[8:])
	if nsect > maxContainerSections {
		return 0, nil, fmt.Errorf("core: container declares %d sections (max %d)", nsect, maxContainerSections)
	}
	if len(data) < 16 {
		return 0, nil, fmt.Errorf("core: container image truncated (%d bytes)", len(data))
	}
	secs := make(map[uint32][]byte, nsect)
	off := uint64(12)
	end := uint64(len(data) - 4) // the CRC footer
	for i := uint32(0); i < nsect; i++ {
		if off+12 > end {
			return 0, nil, fmt.Errorf("core: section %d header exceeds the %d-byte image", i, len(data))
		}
		id := binary.LittleEndian.Uint32(data[off:])
		length := binary.LittleEndian.Uint64(data[off+4:])
		if length > end-(off+12) {
			return 0, nil, fmt.Errorf("core: section %d (%d bytes declared) exceeds the %d-byte image", id, length, len(data))
		}
		if _, dup := secs[id]; dup {
			return 0, nil, fmt.Errorf("core: duplicate container section %d", id)
		}
		secs[id] = data[off+12 : off+12+length]
		off += 12 + length
	}
	if off != end {
		return 0, nil, fmt.Errorf("core: container has %d bytes of trailing garbage before the CRC footer", end-off)
	}
	return kind, secs, nil
}

// verifyImageCRC checks the envelope CRC footer of an in-memory container
// image.
func verifyImageCRC(data []byte) error {
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if computed := crc32.ChecksumIEEE(data[:len(data)-4]); stored != computed {
		return fmt.Errorf("core: container CRC mismatch (stored %#x, computed %#x): file truncated or corrupt", stored, computed)
	}
	return nil
}

// MappedBytesOf reports how many bytes idx serves in place from a retained
// container image — 0 for fully decoded kinds. Callers deciding whether a
// mapping must outlive an index (finalizer or immediate munmap) key off
// this.
func MappedBytesOf(idx DistanceIndex) int64 {
	if m, ok := idx.(MappedIndex); ok {
		return m.MappedBytes()
	}
	return 0
}

// expectDrained enforces that a section decoder consumed its whole payload:
// trailing bytes would make the stream non-canonical (decode → re-encode
// would not be byte-identical), so they are corruption, not slack.
func expectDrained(r *bytes.Reader, what string) error {
	if r.Len() != 0 {
		return fmt.Errorf("%s has %d trailing bytes", what, r.Len())
	}
	return nil
}

// requireSections verifies the decoder's section manifest is present.
func requireSections(secs map[uint32][]byte, ids ...uint32) error {
	for _, id := range ids {
		if _, ok := secs[id]; !ok {
			return fmt.Errorf("missing required section %d (kind confusion or truncated writer?)", id)
		}
	}
	return nil
}

// --- surface-point section codec -------------------------------------------

// Point table layout: count int64, then per point (Face int32, Vert int32,
// X, Y, Z float64) — 32 bytes each. Encoding and decoding pack the fixed
// layout by hand (no per-element reflection): container load time is the
// cost this whole format exists to amortize.

const pointRecordSize = 32

func pointsSectionLen(pts []terrain.SurfacePoint) uint64 {
	return 8 + uint64(len(pts))*pointRecordSize
}

// pointsSection streams a point table as a container section.
func pointsSection(id uint32, pts []terrain.SurfacePoint) section {
	return section{id: id, length: pointsSectionLen(pts), write: func(w io.Writer) error {
		var rec [pointRecordSize]byte
		if err := binary.Write(w, binary.LittleEndian, int64(len(pts))); err != nil {
			return err
		}
		for _, p := range pts {
			putPoint(rec[:], p)
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		return nil
	}}
}

func putPoint(rec []byte, p terrain.SurfacePoint) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(p.Face))
	binary.LittleEndian.PutUint32(rec[4:], uint32(p.Vert))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(p.P.X))
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(p.P.Y))
	binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(p.P.Z))
}

func decodePoints(payload []byte) ([]terrain.SurfacePoint, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("point table header truncated (%d bytes)", len(payload))
	}
	n := int64(binary.LittleEndian.Uint64(payload))
	if n < 0 || n > 1<<40 || int64(len(payload)-8) != n*pointRecordSize {
		return nil, fmt.Errorf("point table declares %d points, has %d payload bytes", n, len(payload)-8)
	}
	pts := make([]terrain.SurfacePoint, n)
	for i := range pts {
		rec := payload[8+i*pointRecordSize:]
		x := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
		z := math.Float64frombits(binary.LittleEndian.Uint64(rec[24:]))
		if !finite(x) || !finite(y) || !finite(z) {
			return nil, fmt.Errorf("point %d has non-finite coordinate", i)
		}
		pts[i] = terrain.SurfacePoint{
			Face: int32(binary.LittleEndian.Uint32(rec[0:])),
			Vert: int32(binary.LittleEndian.Uint32(rec[4:])),
			P:    geom.Vec3{X: x, Y: y, Z: z},
		}
	}
	return pts, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkMeshPoint validates a decoded surface point against its mesh: the
// geodesic engine indexes arrays by Vert (when >= 0) or Face, so both
// bounds — including the lower ones — must hold before the point may be
// handed to an SSAD.
func checkMeshPoint(p terrain.SurfacePoint, m *terrain.Mesh) error {
	if p.Vert < -1 || p.Vert >= int32(m.NumVerts()) {
		return fmt.Errorf("vertex %d outside the mesh (%d verts)", p.Vert, m.NumVerts())
	}
	if p.Face < -1 || p.Face >= int32(m.NumFaces()) {
		return fmt.Errorf("face %d outside the mesh (%d faces)", p.Face, m.NumFaces())
	}
	if p.Vert < 0 && p.Face < 0 {
		return fmt.Errorf("point anchored to neither a face nor a vertex")
	}
	return nil
}

// --- mesh section codec -----------------------------------------------------

// Mesh layout: nverts int64, nfaces int64, verts (3 × float64 each), faces
// (3 × int32 each). The mesh adjacency, locator and geodesic engine are all
// rebuilt on load — they are derived state.

func meshSectionLen(m *terrain.Mesh) uint64 {
	return 16 + uint64(len(m.Verts))*24 + uint64(len(m.Faces))*12
}

// meshSection streams the terrain a site or dynamic oracle depends on.
func meshSection(id uint32, m *terrain.Mesh) section {
	return section{id: id, length: meshSectionLen(m), write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, []int64{int64(len(m.Verts)), int64(len(m.Faces))}); err != nil {
			return err
		}
		var rec [24]byte
		for _, v := range m.Verts {
			binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(v.X))
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(v.Y))
			binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(v.Z))
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		for _, f := range m.Faces {
			binary.LittleEndian.PutUint32(rec[0:], uint32(f[0]))
			binary.LittleEndian.PutUint32(rec[4:], uint32(f[1]))
			binary.LittleEndian.PutUint32(rec[8:], uint32(f[2]))
			if _, err := w.Write(rec[:12]); err != nil {
				return err
			}
		}
		return nil
	}}
}

func decodeMesh(payload []byte) (*terrain.Mesh, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("mesh header truncated (%d bytes)", len(payload))
	}
	nv := int64(binary.LittleEndian.Uint64(payload))
	nf := int64(binary.LittleEndian.Uint64(payload[8:]))
	if nv <= 0 || nf <= 0 || nv > 1<<32 || nf > 1<<32 {
		return nil, fmt.Errorf("implausible mesh sizes %d verts, %d faces", nv, nf)
	}
	if int64(len(payload)-16) != nv*24+nf*12 {
		return nil, fmt.Errorf("mesh declares %d verts + %d faces, has %d payload bytes", nv, nf, len(payload)-16)
	}
	verts := make([]geom.Vec3, nv)
	for i := range verts {
		rec := payload[16+i*24:]
		x := math.Float64frombits(binary.LittleEndian.Uint64(rec[0:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		z := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
		if !finite(x) || !finite(y) || !finite(z) {
			return nil, fmt.Errorf("mesh vertex %d has non-finite coordinate", i)
		}
		verts[i] = geom.Vec3{X: x, Y: y, Z: z}
	}
	facesOff := 16 + int(nv)*24
	faces := make([][3]int32, nf)
	for i := range faces {
		rec := payload[facesOff+i*12:]
		for k := 0; k < 3; k++ {
			v := int32(binary.LittleEndian.Uint32(rec[k*4:]))
			if v < 0 || int64(v) >= nv {
				return nil, fmt.Errorf("mesh face %d references vertex %d (of %d)", i, v, nv)
			}
			faces[i][k] = v
		}
	}
	m, err := terrain.New(verts, faces)
	if err != nil {
		return nil, fmt.Errorf("rebuilding mesh: %w", err)
	}
	return m, nil
}

// --- small helpers ----------------------------------------------------------

// encodeInt32s serializes a length-prefixed int32 slice.
func encodeInt32s(w io.Writer, vs []int32) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(vs))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, vs)
}

func decodeInt32s(r io.Reader) ([]int32, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<40 {
		return nil, fmt.Errorf("implausible slice length %d", n)
	}
	return decodeSlice[int32](r, n)
}

// sortedOverflowIDs returns a dynamic oracle's overflow ids in ascending
// order, so encoding is a deterministic function of logical content and a
// decode → re-encode round trip is byte-identical.
func sortedOverflowIDs(overflow map[int32][]float64) []int32 {
	ids := make([]int32, 0, len(overflow))
	for id := range overflow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
