package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"seoracle/internal/geodesic"
	"seoracle/internal/perfecthash"
	"seoracle/internal/terrain"
)

// flat.go — the zero-parse container layout (KindFlat) and the FlatOracle,
// the one SE query engine: it queries a flat body in place, and every
// *Oracle holds one laid out from its tree and pair set. A flat container is
// a normal SEDX envelope holding exactly one section (secFlat) whose payload — the "body" — is a
// pointer-free image of an SE oracle: a fixed header, a slab directory, and
// 8-byte-aligned slabs laid out so the hot Query probe is two loads off the
// body with no decode pass and no heap copy. Loading is O(#slabs): validate
// the header CRC and the directory bounds, slice the slabs, done — cold
// start is independent of index size.
//
// Body layout (all little-endian; offsets relative to the body, which the
// single-section envelope places at file offset 24, a multiple of 8):
//
//	0   magic   "SEF1"
//	4   flags   uint16  (bit 0: wide slots — node ids too large for compact keys)
//	6   _       uint16  (reserved, 0)
//	8   hdrCRC  uint32  (CRC32-IEEE over body[16 : 80+nSlabs*32])
//	12  _       uint32  (reserved, 0)
//	16  header  (64 bytes)
//	      +0  eps float64   +8  npoi u32    +12 layerN u32   +16 nNodes u32
//	      +20 root u32      +24 height u32  +28 nPairs u32   +32 nSlots u32
//	      +36 nBuckets u32  +40 nSlabs u32  +44 _ u32        +48 r0 float64
//	      +56 seed u64      (the compact perfect-hash seed actually used)
//	80  slab directory: nSlabs × {id u32, _ u32, off u64, len u64, rawLen u64}
//	    then the slabs, 8-aligned, in directory order, zero padding between
//
// Hot slabs are fixed-stride (their exact lengths are functions of the
// header, which the loader enforces):
//
//	leaf   npoi   × u32         POI → leaf node id
//	paths  npoi   × layerN × u32  the A_s layer slab; 0xFFFFFFFF = layer skipped
//	nodes  nNodes × 12 bytes    {center u32, parent u32 (0xFFFFFFFF = root), layer u16, parentLayer u16}
//	disp   nBuckets × u16       compact perfect-hash displacements
//	slots  nSlots × 12 bytes    {compact key u32, dist float64} — or × 16
//	                            {key u64, dist float64} under the wide flag
//
// The slot slab is the compact perfect hash (perfecthash.BuildCompact): the
// pair key is re-based to (a<<shift | b) with shift = bits(nNodes), and the
// distance sits inline next to its key, so a lookup is bucket hash → one
// u16 displacement load → slot hash → one key-compare-plus-distance load.
// Distances stay exact float64 bits, and an *Oracle's engine holds the same
// hot slabs, so the se and flat layouts answer byte-identically.
//
// Cold slabs (points, mesh) hold the flate-compressed bytes of the exact
// se-container section payloads (pointsSection / meshSection), inflated and
// validated lazily on first Nearest/NearestK/QueryPath use; Query never
// touches them. rawLen in the directory is their inflated size.
//
// Integrity: Load checks the envelope CRC of a flat container, but the
// zero-copy byte path (LoadBytesOpts) skips it — an O(n) checksum would
// re-linearize the O(1) cold start. The header CRC plus the structural
// validation above guarantee queries never fault on a mapped read; bit
// flips inside slab content surface as query errors or wrong distances,
// the documented trade for mmap-speed loading (load a suspect file through
// Load — sequery, or seserve without -mmap — to verify it end to end).

const (
	flatBodyMagic = "SEF1"

	flatFlagWide = 1 << 0

	flatHeaderOff   = 16
	flatHeaderLen   = 64
	flatDirOff      = flatHeaderOff + flatHeaderLen
	flatDirEntryLen = 32
	flatMaxSlabs    = 16

	flatSlabLeaf   = 1
	flatSlabPaths  = 2
	flatSlabNodes  = 3
	flatSlabDisp   = 4
	flatSlabSlots  = 5
	flatSlabPoints = 6
	flatSlabMesh   = 7

	flatNodeStride     = 12
	flatSlotStride     = 12
	flatSlotStrideWide = 16

	// flatNone32 marks a skipped layer in the paths slab, a root's parent in
	// the nodes slab, and an empty compact slot (compact keys are < 2^31, so
	// the sentinel never collides with a real key).
	flatNone32 = 0xFFFFFFFF

	// flatStructBytes is the FlatOracle struct's own heap footprint charged
	// to MemoryBytes before any lazy decode runs.
	flatStructBytes = 256
)

// flatShift returns the bit width of node ids in an nNodes-node tree — the
// re-basing shift of the compact pair key (a<<shift | b).
func flatShift(nNodes int) uint {
	s := uint(bits.Len64(uint64(nNodes - 1)))
	if s == 0 {
		s = 1
	}
	return s
}

// flatAlign8 rounds an offset up to the next multiple of 8.
func flatAlign8(off uint64) uint64 { return (off + 7) &^ 7 }

// deflateBytes compresses raw with flate at best compression — the cold
// slab codec. Stdlib-only by design.
func deflateBytes(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflateSlab decompresses a cold slab to exactly rawLen bytes; shorter or
// longer streams are corruption.
func inflateSlab(comp []byte, rawLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(comp))
	defer r.Close()
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("inflating %d-byte slab: %w", rawLen, err)
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("slab inflates past its declared %d bytes", rawLen)
	}
	return raw, nil
}

// --- encoder -----------------------------------------------------------------

// flatSlab is one directory entry queued for assembly.
type flatSlab struct {
	id     uint32
	data   []byte
	rawLen uint64 // inflated size for compressed slabs, 0 for fixed-stride ones
}

// EncodeFlatTo writes the oracle as a flat-layout container (KindFlat): the
// same logical index as EncodeTo, re-laid so FlatOracle can query the bytes
// in place. The encoding is deterministic, so convert → load → re-encode is
// byte-identical.
func (o *Oracle) EncodeFlatTo(w io.Writer) error { return o.encodeFlatContainer(w, o.Mesh()) }

// encodeFlatContainer writes the flat container with an explicit mesh
// choice: EncodeFlatTo embeds the oracle's own mesh, while a multi container
// passes nil for members whose mesh it hoists into one shared section.
func (o *Oracle) encodeFlatContainer(w io.Writer, mesh *terrain.Mesh) error {
	body, err := flatBody(o.flat, mesh)
	if err != nil {
		return err
	}
	return writeContainer(w, KindFlat, []section{bytesSection(secFlat, body)})
}

// newFlatEngine lays out the hot slabs of an SE oracle's flat image — the
// query engine behind every *Oracle, and the hot half of a flat container
// body. The caller attaches the point table and the mesh in memory; nothing
// is deflated.
func newFlatEngine(eps float64, ct *ctree, keys []uint64, dist []float64, npoi int) (*FlatOracle, error) {
	nNodes, layerN := len(ct.nodes), int(ct.height)+1
	if nNodes < 1 || npoi < 1 || layerN < 1 || layerN > maxLayers {
		return nil, fmt.Errorf("core: oracle shape (%d nodes, %d POIs, %d layers) has no flat form", nNodes, npoi, layerN)
	}
	f := &FlatOracle{
		eps: eps, npoi: npoi, layerN: layerN, nNodes: nNodes, height: int(ct.height),
		root: ct.root, r0: ct.r0, nPairs: len(keys),
		nSlots: perfecthash.CompactSlots(len(keys)), nBuckets: perfecthash.CompactBuckets(len(keys)),
		shift: flatShift(nNodes),
	}
	f.wide = 2*f.shift > 31

	ckeys := make([]uint64, len(keys))
	for i, k := range keys {
		if f.wide {
			ckeys[i] = k
		} else {
			ckeys[i] = k>>32<<f.shift | k&0xffffffff
		}
	}
	disp, slotOf, seed, err := perfecthash.BuildCompact(ckeys, hashSeed)
	if err != nil {
		return nil, fmt.Errorf("core: hashing node pairs: %w", err)
	}
	f.seed = seed

	f.leaf = make([]byte, 4*npoi)
	f.paths = bytes.Repeat([]byte{0xFF}, 4*npoi*layerN) // flatNone32: layer skipped
	for p, l := range ct.leaf {
		binary.LittleEndian.PutUint32(f.leaf[p*4:], uint32(l))
		for n := l; n >= 0; n = ct.nodes[n].parent {
			binary.LittleEndian.PutUint32(f.paths[(p*layerN+int(ct.nodes[n].layer))*4:], uint32(n))
		}
	}
	f.nodes = make([]byte, flatNodeStride*nNodes)
	for id, n := range ct.nodes {
		rec := f.nodes[id*flatNodeStride:]
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.center))
		binary.LittleEndian.PutUint32(rec[4:], uint32(n.parent)) // -1 becomes flatNone32
		binary.LittleEndian.PutUint16(rec[8:], uint16(n.layer))
		if n.parent >= 0 {
			binary.LittleEndian.PutUint16(rec[10:], uint16(ct.nodes[n.parent].layer))
		}
	}
	f.disp = make([]byte, 2*len(disp))
	for i, d := range disp {
		binary.LittleEndian.PutUint16(f.disp[i*2:], d)
	}
	stride := flatSlotStride
	if f.wide {
		stride = flatSlotStrideWide
	}
	f.slots = make([]byte, stride*f.nSlots)
	for s := 0; s < f.nSlots; s++ {
		if f.wide {
			binary.LittleEndian.PutUint64(f.slots[s*stride:], ^uint64(0))
		} else {
			binary.LittleEndian.PutUint32(f.slots[s*stride:], flatNone32)
		}
	}
	for i, s := range slotOf {
		rec := f.slots[int(s)*stride:]
		if f.wide {
			binary.LittleEndian.PutUint64(rec[0:], ckeys[i])
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(dist[i]))
		} else {
			binary.LittleEndian.PutUint32(rec[0:], uint32(ckeys[i]))
			binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(dist[i]))
		}
	}
	return f, nil
}

// flatBody assembles the flat body image of an SE engine: its hot slabs
// verbatim plus the deflated cold slabs. mesh is the terrain to embed as the
// cold mesh slab — nil when the container carries it elsewhere (a multi's
// shared section, an a2a container's own mesh section).
func flatBody(f *FlatOracle, mesh *terrain.Mesh) ([]byte, error) {
	if f.pts == nil {
		return nil, fmt.Errorf("core: oracle carries no point table; the flat layout requires one")
	}
	// Cold slabs: the exact se-container section bytes, flate-compressed, so
	// lazy decoding reuses decodePoints/decodeMesh validation unchanged.
	var pbuf bytes.Buffer
	if err := pointsSection(secPoints, f.pts).write(&pbuf); err != nil {
		return nil, err
	}
	ptsC, err := deflateBytes(pbuf.Bytes())
	if err != nil {
		return nil, err
	}
	slabs := []flatSlab{
		{id: flatSlabLeaf, data: f.leaf},
		{id: flatSlabPaths, data: f.paths},
		{id: flatSlabNodes, data: f.nodes},
		{id: flatSlabDisp, data: f.disp},
		{id: flatSlabSlots, data: f.slots},
		{id: flatSlabPoints, data: ptsC, rawLen: uint64(pbuf.Len())},
	}
	if mesh != nil {
		var mbuf bytes.Buffer
		if err := meshSection(secMesh, mesh).write(&mbuf); err != nil {
			return nil, err
		}
		meshC, err := deflateBytes(mbuf.Bytes())
		if err != nil {
			return nil, err
		}
		slabs = append(slabs, flatSlab{id: flatSlabMesh, data: meshC, rawLen: uint64(mbuf.Len())})
	}

	// Directory + assembly.
	dirEnd := uint64(flatDirOff + len(slabs)*flatDirEntryLen)
	off := flatAlign8(dirEnd)
	offs := make([]uint64, len(slabs))
	for i, s := range slabs {
		offs[i] = off
		off = flatAlign8(off + uint64(len(s.data)))
	}
	body := make([]byte, off)
	copy(body[0:], flatBodyMagic)
	var flags uint16
	if f.wide {
		flags |= flatFlagWide
	}
	binary.LittleEndian.PutUint16(body[4:], flags)
	h := body[flatHeaderOff:]
	binary.LittleEndian.PutUint64(h[0:], math.Float64bits(f.eps))
	binary.LittleEndian.PutUint32(h[8:], uint32(f.npoi))
	binary.LittleEndian.PutUint32(h[12:], uint32(f.layerN))
	binary.LittleEndian.PutUint32(h[16:], uint32(f.nNodes))
	binary.LittleEndian.PutUint32(h[20:], uint32(f.root))
	binary.LittleEndian.PutUint32(h[24:], uint32(f.height))
	binary.LittleEndian.PutUint32(h[28:], uint32(f.nPairs))
	binary.LittleEndian.PutUint32(h[32:], uint32(f.nSlots))
	binary.LittleEndian.PutUint32(h[36:], uint32(f.nBuckets))
	binary.LittleEndian.PutUint32(h[40:], uint32(len(slabs)))
	binary.LittleEndian.PutUint64(h[48:], math.Float64bits(f.r0))
	binary.LittleEndian.PutUint64(h[56:], f.seed)
	for i, s := range slabs {
		ent := body[flatDirOff+i*flatDirEntryLen:]
		binary.LittleEndian.PutUint32(ent[0:], s.id)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint64(ent[24:], s.rawLen)
		copy(body[offs[i]:], s.data)
	}
	binary.LittleEndian.PutUint32(body[8:], crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]))
	return body, nil
}

// ConvertFlat re-lays an index into the flat container layout: an SE oracle
// becomes a FlatOracle, and an A2A site oracle becomes one whose inner
// oracle is a flat body read in place (what EncodeTo writes, so a site
// oracle loaded from a legacy se-body container upgrades). A multi
// container is returned as is: its EncodeTo already writes every SE member
// flat and every coarse member as a flat-body a2a, so a legacy multi
// re-encodes to the flat bytes. The dynamic kind, and oracles without a
// point table, have no flat form and return an error.
func ConvertFlat(idx DistanceIndex) (DistanceIndex, error) {
	switch v := idx.(type) {
	case *FlatOracle, *ShardedIndex:
		return v, nil
	case *Oracle:
		return flatFromOracle(v)
	case *SiteOracle:
		if v.oracle == nil {
			return v, nil
		}
		var buf bytes.Buffer
		if err := v.EncodeTo(&buf); err != nil {
			return nil, err
		}
		idx, _, err := LoadBytesOpts(buf.Bytes(), nil, LoadOptions{})
		return idx, err
	default:
		return nil, fmt.Errorf("core: kind %s has no flat layout (flat supports se, a2a and multi)", idx.Stats().Kind)
	}
}

// flatFromOracle encodes o's flat body (embedding o's mesh) and decodes it
// back — the in-memory conversion path sebuild -layout=flat and seconvert
// share with the loader, so a converted index is bit-for-bit what a flat
// load would produce.
func flatFromOracle(o *Oracle) (*FlatOracle, error) {
	body, err := flatBody(o.flat, o.Mesh())
	if err != nil {
		return nil, err
	}
	f, err := decodeFlatBody(body, nil)
	if err != nil {
		return nil, fmt.Errorf("core: flat body failed its own validation: %w", err)
	}
	return f, nil
}

// --- FlatOracle --------------------------------------------------------------

// FlatOracle is the SE query engine: the §3.4 probe, path stitching and
// nearest scans over the fixed-stride slabs of the flat layout. It comes in
// two forms. Loaded from a flat container it reads the body in place (a
// memory mapping, when loaded through one), and the point table and mesh
// inflate lazily on the first Nearest/NearestK/QueryPath call. As the
// engine of an *Oracle it owns heap slabs laid out by newFlatEngine, with
// the oracle's points and mesh attached. Either way it is immutable and
// safe for concurrent use.
type FlatOracle struct {
	body []byte // the secFlat section payload, retained verbatim; nil for an *Oracle's engine
	keep any    // mapping owner, referenced so a finalizer-driven munmap outlives us

	eps      float64
	npoi     int
	layerN   int
	nNodes   int
	height   int
	root     int32
	r0       float64
	nPairs   int
	nSlots   int
	nBuckets int
	seed     uint64
	wide     bool
	shift    uint

	leaf, paths, nodes, disp, slots []byte
	ptsC, meshC                     []byte
	ptsRaw, meshRaw                 int

	// Cold state. pts and mesh inflate lazily from ptsC and meshC; when a
	// cold slab is absent they are attached in memory instead (an *Oracle's
	// points and mesh, or the shared mesh of a multi container) and may be
	// nil. heapExtra accumulates the inflated structures' heap cost so
	// MemoryBytes stays truthful without synchronizing on the sync.Once
	// internals.
	ptsOnce   sync.Once
	pts       []terrain.SurfacePoint
	ptsErr    error
	meshOnce  sync.Once
	mesh      *terrain.Mesh
	meshErr   error
	heapExtra atomic.Int64

	pathMu   sync.Mutex
	peng     geodesic.PathEngine
	pengErr  error
	segCache map[uint64]pathSeg
}

// decodeFlatSecs validates the flat body found in the section map; keep is
// threaded into the oracle so a memory mapping backing the bytes stays
// alive while the oracle is reachable.
func decodeFlatSecs(secs map[uint32][]byte, keep any) (*FlatOracle, error) {
	if err := requireSections(secs, secFlat); err != nil {
		return nil, err
	}
	return decodeFlatBody(secs[secFlat], keep)
}

// decodeFlatHeader validates the fixed part of a flat body — magic, flags,
// the header CRC and the header fields — and returns an oracle shell holding
// those fields (no slabs) plus the end offset of the slab directory. It
// reads O(1) bytes, so a lazy multi load can report a member's shape without
// faulting it in.
func decodeFlatHeader(body []byte) (*FlatOracle, int, error) {
	if len(body) < flatDirOff {
		return nil, 0, fmt.Errorf("flat body truncated (%d bytes)", len(body))
	}
	if string(body[:4]) != flatBodyMagic {
		return nil, 0, fmt.Errorf("bad flat body magic %q", body[:4])
	}
	flags := binary.LittleEndian.Uint16(body[4:])
	if flags&^uint16(flatFlagWide) != 0 {
		return nil, 0, fmt.Errorf("unknown flat flags %#x", flags)
	}
	h := body[flatHeaderOff:]
	nSlabs := int(binary.LittleEndian.Uint32(h[40:]))
	if nSlabs < 1 || nSlabs > flatMaxSlabs {
		return nil, 0, fmt.Errorf("flat body declares %d slabs (want 1..%d)", nSlabs, flatMaxSlabs)
	}
	dirEnd := flatDirOff + nSlabs*flatDirEntryLen
	if len(body) < dirEnd {
		return nil, 0, fmt.Errorf("flat slab directory truncated (%d bytes, need %d)", len(body), dirEnd)
	}
	if stored, computed := binary.LittleEndian.Uint32(body[8:]), crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]); stored != computed {
		return nil, 0, fmt.Errorf("flat header CRC mismatch (stored %#x, computed %#x)", stored, computed)
	}

	f := &FlatOracle{
		eps:      math.Float64frombits(binary.LittleEndian.Uint64(h[0:])),
		npoi:     int(binary.LittleEndian.Uint32(h[8:])),
		layerN:   int(binary.LittleEndian.Uint32(h[12:])),
		nNodes:   int(binary.LittleEndian.Uint32(h[16:])),
		root:     int32(binary.LittleEndian.Uint32(h[20:])),
		height:   int(binary.LittleEndian.Uint32(h[24:])),
		nPairs:   int(binary.LittleEndian.Uint32(h[28:])),
		nSlots:   int(binary.LittleEndian.Uint32(h[32:])),
		nBuckets: int(binary.LittleEndian.Uint32(h[36:])),
		r0:       math.Float64frombits(binary.LittleEndian.Uint64(h[48:])),
		seed:     binary.LittleEndian.Uint64(h[56:]),
		wide:     flags&flatFlagWide != 0,
	}
	if !finite(f.eps) || f.eps <= 0 {
		return nil, 0, fmt.Errorf("flat header epsilon %g not positive and finite", f.eps)
	}
	if !finite(f.r0) || f.r0 < 0 {
		return nil, 0, fmt.Errorf("flat header r0 %g invalid", f.r0)
	}
	if f.npoi < 1 || f.npoi > 1<<30 {
		return nil, 0, fmt.Errorf("flat header declares %d POIs", f.npoi)
	}
	if f.layerN < 1 || f.layerN > maxLayers || f.height != f.layerN-1 {
		return nil, 0, fmt.Errorf("flat header layers %d / height %d inconsistent", f.layerN, f.height)
	}
	if f.nNodes < 1 || f.nNodes > 1<<30 || f.root < 0 || int(f.root) >= f.nNodes {
		return nil, 0, fmt.Errorf("flat header declares %d nodes, root %d", f.nNodes, f.root)
	}
	if f.nPairs < 0 || f.nPairs > 1<<30 ||
		f.nSlots != perfecthash.CompactSlots(f.nPairs) ||
		f.nBuckets != perfecthash.CompactBuckets(f.nPairs) {
		return nil, 0, fmt.Errorf("flat header hash shape (%d pairs, %d slots, %d buckets) inconsistent",
			f.nPairs, f.nSlots, f.nBuckets)
	}
	f.shift = flatShift(f.nNodes)
	if f.wide != (2*f.shift > 31) {
		return nil, 0, fmt.Errorf("flat wide flag %v inconsistent with %d nodes", f.wide, f.nNodes)
	}
	return f, dirEnd, nil
}

// decodeFlatBody is the O(#slabs) structural validation pass: header magic
// and CRC, sane header fields, and a slab directory whose entries are
// in-bounds, 8-aligned, non-overlapping and exactly the lengths the header
// implies. Everything a query later reads is either covered here or bounds-
// guarded at access time, so corrupt content yields errors, never faults.
func decodeFlatBody(body []byte, keep any) (*FlatOracle, error) {
	f, dirEnd, err := decodeFlatHeader(body)
	if err != nil {
		return nil, err
	}
	f.body, f.keep = body, keep
	nSlabs := (dirEnd - flatDirOff) / flatDirEntryLen
	stride := flatSlotStride
	if f.wide {
		stride = flatSlotStrideWide
	}
	want := map[uint32]uint64{
		flatSlabLeaf:  4 * uint64(f.npoi),
		flatSlabPaths: 4 * uint64(f.npoi) * uint64(f.layerN),
		flatSlabNodes: flatNodeStride * uint64(f.nNodes),
		flatSlabDisp:  2 * uint64(f.nBuckets),
		flatSlabSlots: uint64(stride) * uint64(f.nSlots),
	}
	prevEnd := uint64(dirEnd)
	seen := map[uint32]bool{}
	for i := 0; i < nSlabs; i++ {
		ent := body[flatDirOff+i*flatDirEntryLen:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		rawLen := binary.LittleEndian.Uint64(ent[24:])
		if seen[id] {
			return nil, fmt.Errorf("duplicate flat slab %d", id)
		}
		seen[id] = true
		if off%8 != 0 {
			return nil, fmt.Errorf("flat slab %d misaligned (offset %d)", id, off)
		}
		if off < prevEnd || length > uint64(len(body)) || off > uint64(len(body))-length {
			return nil, fmt.Errorf("flat slab %d [%d,+%d) overlaps or exceeds the %d-byte body", id, off, length, len(body))
		}
		prevEnd = off + length
		data := body[off : off+length]
		switch id {
		case flatSlabLeaf, flatSlabPaths, flatSlabNodes, flatSlabDisp, flatSlabSlots:
			if length != want[id] {
				return nil, fmt.Errorf("flat slab %d holds %d bytes, header implies %d", id, length, want[id])
			}
			if rawLen != 0 {
				return nil, fmt.Errorf("flat slab %d declares a raw length (%d) but is not compressed", id, rawLen)
			}
			switch id {
			case flatSlabLeaf:
				f.leaf = data
			case flatSlabPaths:
				f.paths = data
			case flatSlabNodes:
				f.nodes = data
			case flatSlabDisp:
				f.disp = data
			case flatSlabSlots:
				f.slots = data
			}
		case flatSlabPoints:
			if length == 0 || rawLen != 8+uint64(f.npoi)*pointRecordSize {
				return nil, fmt.Errorf("flat point slab declares %d raw bytes for %d POIs", rawLen, f.npoi)
			}
			f.ptsC, f.ptsRaw = data, int(rawLen)
		case flatSlabMesh:
			if length == 0 || rawLen < 16 || rawLen > 1<<40 {
				return nil, fmt.Errorf("flat mesh slab declares %d raw bytes", rawLen)
			}
			f.meshC, f.meshRaw = data, int(rawLen)
		default:
			return nil, fmt.Errorf("unknown flat slab id %d", id)
		}
	}
	for _, id := range []uint32{flatSlabLeaf, flatSlabPaths, flatSlabNodes, flatSlabDisp, flatSlabSlots, flatSlabPoints} {
		if !seen[id] {
			return nil, fmt.Errorf("flat body missing required slab %d", id)
		}
	}
	return f, nil
}

// --- hot query path ----------------------------------------------------------

// checkIDs validates two POI ids on the hot probe path; the error
// constructors only run for invalid input.
//
//sealint:hotpath
func (f *FlatOracle) checkIDs(s, t int32) error {
	if s < 0 || int(s) >= f.npoi {
		//sealint:ignore invalid-id error path; valid ids allocate nothing
		return fmt.Errorf("core: POI id %d out of range [0,%d)", s, f.npoi)
	}
	if t < 0 || int(t) >= f.npoi {
		//sealint:ignore invalid-id error path; valid ids allocate nothing
		return fmt.Errorf("core: POI id %d out of range [0,%d)", t, f.npoi)
	}
	return nil
}

// pathRow returns POI p's A_s row of the paths slab (layerN u32 entries).
//
//sealint:hotpath
func (f *FlatOracle) pathRow(p int32) []byte {
	row := int(p) * f.layerN * 4
	return f.paths[row : row+f.layerN*4]
}

// lookup probes the compact slot slab for node pair (a, b): bucket hash →
// displacement → slot hash → inline key compare and distance load. Callers
// guarantee a, b < nNodes, so the compact key is well-formed.
//
//sealint:hotpath
func (f *FlatOracle) lookup(a, b uint32) (float64, bool) {
	var key uint64
	if f.wide {
		key = uint64(a)<<32 | uint64(b)
	} else {
		key = uint64(a)<<f.shift | uint64(b)
	}
	bkt := perfecthash.CompactBucketOf(key, f.seed, f.nBuckets)
	d := binary.LittleEndian.Uint16(f.disp[bkt*2:])
	s := perfecthash.CompactSlotOf(key, f.seed, d, f.nSlots)
	if f.wide {
		rec := f.slots[s*flatSlotStrideWide:]
		if binary.LittleEndian.Uint64(rec) != key {
			return 0, false
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])), true
	}
	rec := f.slots[s*flatSlotStride:]
	if uint64(binary.LittleEndian.Uint32(rec)) != key {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])), true
}

// nodeParentLayer returns the precomputed parentLayer field of node n
// (callers guarantee n < nNodes).
//
//sealint:hotpath
func (f *FlatOracle) nodeParentLayer(n uint32) int {
	return int(binary.LittleEndian.Uint16(f.nodes[int(n)*flatNodeStride+10:]))
}

// errFlatCorrupt reports a slab entry that escaped structural validation —
// a node id out of range, the lazy-validation counterpart of the load-time
// checks. Kept out of line so the fmt.Errorf argument boxing stays in this
// cold helper instead of inlining into the //sealint:hotpath probe
// functions, where the escape gate would (rightly) flag it.
//
//go:noinline
func (f *FlatOracle) errFlatCorrupt(what string, v uint32) error {
	return fmt.Errorf("core: flat container corrupt: %s %d out of range [0,%d)", what, v, f.nNodes)
}

// Query returns the ε-approximate geodesic distance between POIs s and t
// using the efficient O(h) method of §3.4, reading only the hot slabs: one
// same-layer scan plus the first-higher-layer and first-lower-layer passes
// justified by Lemma 3 / Observation 1, each probe two loads. Zero heap
// allocations on success.
//
//sealint:hotpath
func (f *FlatOracle) Query(s, t int32) (float64, error) {
	if err := f.checkIDs(s, t); err != nil {
		return 0, err
	}
	if s == t {
		// A same-leaf self pair is not guaranteed to be in the
		// well-separated pair set, and scanning for one would burn the full
		// O(h) passes to state the obvious.
		return 0, nil
	}
	d, _, _, err := f.queryPair(s, t)
	return d, err
}

// queryPair runs the O(h) scan of §3.4 and returns the unique matched node
// pair (Theorem 1) along with its stored distance: Query drops the nodes,
// QueryPath stitches the highway path between their centers. Node ids read
// from the paths slab are bounds-guarded before they index the nodes slab,
// so corrupt content errors instead of faulting.
//
//sealint:hotpath
func (f *FlatOracle) queryPair(s, t int32) (float64, uint32, uint32, error) {
	as := f.pathRow(s)
	at := f.pathRow(t)
	nn := uint32(f.nNodes)

	for i := 0; i < f.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		b := binary.LittleEndian.Uint32(at[i*4:])
		if a == flatNone32 || b == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, 0, f.errFlatCorrupt("path node", a)
		}
		if b >= nn {
			return 0, 0, 0, f.errFlatCorrupt("path node", b)
		}
		if d, ok := f.lookup(a, b); ok {
			return d, a, b, nil
		}
	}
	for i := 1; i < f.layerN; i++ {
		b := binary.LittleEndian.Uint32(at[i*4:])
		if b == flatNone32 {
			continue
		}
		if b >= nn {
			return 0, 0, 0, f.errFlatCorrupt("path node", b)
		}
		j := f.nodeParentLayer(b)
		for k := j; k < i; k++ {
			a := binary.LittleEndian.Uint32(as[k*4:])
			if a == flatNone32 {
				continue
			}
			if a >= nn {
				return 0, 0, 0, f.errFlatCorrupt("path node", a)
			}
			if d, ok := f.lookup(a, b); ok {
				return d, a, b, nil
			}
		}
	}
	for i := 1; i < f.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		if a == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, 0, f.errFlatCorrupt("path node", a)
		}
		j := f.nodeParentLayer(a)
		for k := j; k < i; k++ {
			b := binary.LittleEndian.Uint32(at[k*4:])
			if b == flatNone32 {
				continue
			}
			if b >= nn {
				return 0, 0, 0, f.errFlatCorrupt("path node", b)
			}
			if d, ok := f.lookup(a, b); ok {
				return d, a, b, nil
			}
		}
	}
	//sealint:ignore corrupt-oracle error path, never taken on a well-formed image
	return 0, 0, 0, fmt.Errorf("core: no node pair contains POIs (%d,%d); oracle corrupt", s, t)
}

// QueryBatch answers pairs[i] = (s, t) into dst[i] and returns dst. When
// cap(dst) >= len(pairs) the call performs no heap allocations (pass dst ==
// nil to let the call allocate). On the first invalid pair the filled prefix
// and the error are returned. This is the throughput surface for serving
// bulk workloads: one bounds-checked call, no per-query interface or slice
// churn.
//
//sealint:hotpath
func (f *FlatOracle) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	if cap(dst) < len(pairs) {
		//sealint:ignore documented contract: the caller chose the allocation by passing a short dst
		dst = make([]float64, len(pairs))
	}
	dst = dst[:len(pairs)]
	for i, p := range pairs {
		d, err := f.Query(p[0], p[1])
		if err != nil {
			//sealint:ignore invalid-pair error path; success stays allocation-free
			return dst[:i], fmt.Errorf("core: batch pair %d: %w", i, err)
		}
		dst[i] = d
	}
	return dst, nil
}

// QueryMatrix fills dst with the row-major sources×targets matrix through
// the zero-allocation batch path, one row per worker. Part of the
// MatrixIndex interface.
func (f *FlatOracle) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return MatrixViaBatch(f, sources, targets, dst)
}

// QueryNaive answers the same query by probing the full A_s × A_t product
// (the O(h²) naive method of §3.4). Kept as the SE-Naive baseline of the §5
// ablation and as a cross-check for Query.
//
//sealint:hotpath
func (f *FlatOracle) QueryNaive(s, t int32) (float64, error) {
	if err := f.checkIDs(s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	d, n, err := f.productScan(s, t, true)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		//sealint:ignore corrupt-oracle error path, never taken on a well-formed image
		return 0, fmt.Errorf("core: no node pair contains POIs (%d,%d); oracle corrupt", s, t)
	}
	return d, nil
}

// productScan probes the full A_s × A_t product and returns the number of
// matched node pairs with the distance of the last one; first stops at the
// first match.
//
//sealint:hotpath
func (f *FlatOracle) productScan(s, t int32, first bool) (float64, int, error) {
	as := f.pathRow(s)
	at := f.pathRow(t)
	nn := uint32(f.nNodes)
	d, cnt := 0.0, 0
	for i := 0; i < f.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		if a == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, f.errFlatCorrupt("path node", a)
		}
		for j := 0; j < f.layerN; j++ {
			b := binary.LittleEndian.Uint32(at[j*4:])
			if b == flatNone32 {
				continue
			}
			if b >= nn {
				return 0, 0, f.errFlatCorrupt("path node", b)
			}
			if v, ok := f.lookup(a, b); ok {
				d, cnt = v, cnt+1
				if first {
					return d, cnt, nil
				}
			}
		}
	}
	return d, cnt, nil
}

// --- lazy cold slabs ---------------------------------------------------------

// points inflates and validates the point slab on first use; Query never
// calls this, which is what keeps cold start O(1). An engine without a point
// slab returns its attached table, which may be nil.
func (f *FlatOracle) points() ([]terrain.SurfacePoint, error) {
	if f.ptsC == nil {
		return f.pts, nil
	}
	f.ptsOnce.Do(func() {
		raw, err := inflateSlab(f.ptsC, f.ptsRaw)
		if err != nil {
			f.ptsErr = fmt.Errorf("core: flat point slab: %w", err)
			return
		}
		pts, err := decodePoints(raw)
		if err != nil {
			f.ptsErr = fmt.Errorf("core: flat point slab: %w", err)
			return
		}
		if len(pts) != f.npoi {
			f.ptsErr = fmt.Errorf("core: flat point slab holds %d points, header says %d", len(pts), f.npoi)
			return
		}
		f.pts = pts
		f.heapExtra.Add(int64(len(pts)) * pointRecordSize)
	})
	return f.pts, f.ptsErr
}

// meshRef resolves the terrain for path queries: the embedded mesh slab
// (inflated and rebuilt on first use) or the attached mesh;
// ErrNoPathGeometry when the oracle carries neither.
func (f *FlatOracle) meshRef() (*terrain.Mesh, error) {
	if f.meshC == nil {
		if f.mesh == nil {
			return nil, ErrNoPathGeometry
		}
		return f.mesh, nil
	}
	f.meshOnce.Do(func() {
		raw, err := inflateSlab(f.meshC, f.meshRaw)
		if err != nil {
			f.meshErr = fmt.Errorf("core: flat mesh slab: %w", err)
			return
		}
		m, err := decodeMesh(raw)
		if err != nil {
			f.meshErr = fmt.Errorf("core: flat mesh slab: %w", err)
			return
		}
		f.mesh = m
		f.heapExtra.Add(int64(f.meshRaw) * 2) // verts+faces plus rebuilt adjacency
	})
	return f.mesh, f.meshErr
}

// Mesh returns the oracle's terrain if it is already resident (embedded and
// decoded, or attached), nil otherwise. It never triggers the lazy inflate;
// parity tests and the encoder use it.
func (f *FlatOracle) Mesh() *terrain.Mesh { return f.mesh }

// Points returns the POI point table: lazily inflated, or the attached one.
func (f *FlatOracle) Points() ([]terrain.SurfacePoint, error) { return f.points() }

// Nearest returns the indexed POI planar-closest to (x, y). Part of the
// NearestFinder interface; triggers the lazy point-slab inflate.
func (f *FlatOracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	pts, err := f.points()
	if err != nil {
		return -1, terrain.SurfacePoint{}, 0, err
	}
	return nearestScan(pts, nil, x, y)
}

// NearestK returns up to k POIs ordered by planar distance to (x, y), ties
// toward the lower id. Part of the NearestKFinder interface.
func (f *FlatOracle) NearestK(x, y float64, k int) ([]Neighbor, error) {
	pts, err := f.points()
	if err != nil {
		return nil, err
	}
	return nearestKScan(pts, nil, x, y, k)
}

// Reachable returns every POI within surface distance d of POI src, in
// ascending id order. Part of the Reachability interface.
func (f *FlatOracle) Reachable(src int32, d float64) ([]Reached, error) {
	pts, err := f.points()
	if err != nil {
		return nil, err
	}
	if pts == nil {
		return nil, fmt.Errorf("core: index carries no point table")
	}
	ids := make([]int32, f.npoi)
	for i := range ids {
		ids[i] = int32(i)
	}
	return reachableScan(f, ids, func(id int32) terrain.SurfacePoint { return pts[id] }, src, d)
}

// --- path queries ------------------------------------------------------------

// pathSetup resolves the terrain and the geodesic engine, validating every
// POI anchor against the mesh exactly once — the lazy counterpart of the
// checks the se decoders run eagerly. An engine handed a path engine at
// construction uses it as is.
func (f *FlatOracle) pathSetup(pts []terrain.SurfacePoint) (geodesic.PathEngine, error) {
	m, err := f.meshRef()
	if err != nil {
		return nil, err
	}
	f.pathMu.Lock()
	defer f.pathMu.Unlock()
	if f.pengErr != nil {
		return nil, f.pengErr
	}
	if f.peng == nil {
		for i, p := range pts {
			if err := checkMeshPoint(p, m); err != nil {
				f.pengErr = fmt.Errorf("core: flat POI %d against the mesh: %w", i, err)
				return nil, f.pengErr
			}
		}
		f.peng = geodesic.NewExact(m)
	}
	return f.peng, nil
}

// QueryPath returns the ε-approximate highway path between POIs s and t:
// the polyline runs s → (center chain of the matched node O) → (pair
// geodesic) → (center chain of O', reversed) → t, and the returned distance
// is the polyline's exact summed length. Safe for concurrent use; hop
// geodesics are cached across calls under an internal lock.
func (f *FlatOracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	if err := f.checkIDs(s, t); err != nil {
		return nil, 0, err
	}
	pts, err := f.points()
	if err != nil {
		return nil, 0, err
	}
	if pts == nil {
		return nil, 0, fmt.Errorf("core: oracle carries no point table: %w", ErrNoPathGeometry)
	}
	if s == t {
		p := pts[s]
		return []terrain.SurfacePoint{p, p}, 0, nil
	}
	_, na, nb, err := f.queryPair(s, t)
	if err != nil {
		return nil, 0, err
	}
	eng, err := f.pathSetup(pts)
	if err != nil {
		return nil, 0, err
	}
	seq, err := f.centerSequence(s, t, na, nb)
	if err != nil {
		return nil, 0, err
	}
	var path []terrain.SurfacePoint
	total := 0.0
	for i := 1; i < len(seq); i++ {
		seg, segLen, err := f.hopSegment(eng, pts, seq[i-1], seq[i])
		if err != nil {
			return nil, 0, err
		}
		if len(path) == 0 {
			path = append(path, seg...)
		} else {
			// The hop starts exactly where the previous one ended (the
			// shared center's surface point).
			path = append(path, seg[1:]...)
		}
		total += segLen
	}
	return path, total, nil
}

// centerSequence builds the POI id sequence of the highway path: s's center
// chain up to node na, then nb's chain down to t, with coincident
// neighbors collapsed (the leaf's center is the POI itself, and a matched
// node's center can equal the query POI).
func (f *FlatOracle) centerSequence(s, t int32, na, nb uint32) ([]int32, error) {
	seq := make([]int32, 0, 2*f.layerN)
	seq, err := f.appendCenterChain(seq, s, na)
	if err != nil {
		return nil, err
	}
	down, err := f.appendCenterChain(nil, t, nb)
	if err != nil {
		return nil, err
	}
	for i := len(down) - 1; i >= 0; i-- {
		seq = appendPOI(seq, down[i])
	}
	if len(seq) < 2 {
		return nil, fmt.Errorf("core: degenerate center sequence for POIs (%d,%d)", s, t)
	}
	return seq, nil
}

// appendCenterChain appends the centers on POI p's leaf-to-node path
// (starting with p itself, ending with node's center, consecutive
// duplicates collapsed), walking the nodes slab. node must be an ancestor
// of p's leaf — queryPair guarantees it for matched pairs. Every hop is
// bounds-guarded and the walk's length bounded, so a corrupt parent cycle
// terminates with an error instead of spinning.
func (f *FlatOracle) appendCenterChain(seq []int32, p int32, node uint32) ([]int32, error) {
	seq = appendPOI(seq, p)
	n := binary.LittleEndian.Uint32(f.leaf[int(p)*4:])
	for steps := 0; ; steps++ {
		if n == flatNone32 {
			return nil, fmt.Errorf("core: node %d is not an ancestor of POI %d's leaf; oracle corrupt", node, p)
		}
		if n >= uint32(f.nNodes) || steps > f.nNodes {
			return nil, f.errFlatCorrupt("chain node", n)
		}
		rec := f.nodes[int(n)*flatNodeStride:]
		center := binary.LittleEndian.Uint32(rec)
		if center >= uint32(f.npoi) {
			return nil, fmt.Errorf("core: flat container corrupt: node %d center %d out of range [0,%d)", n, center, f.npoi)
		}
		seq = appendPOI(seq, int32(center))
		if n == node {
			return seq, nil
		}
		n = binary.LittleEndian.Uint32(rec[4:])
	}
}

// hopSegment returns the geodesic polyline between POIs u and v and its
// length, serving and filling the canonical-direction cache. The returned
// slice is oriented u → v and safe for the caller to copy from (reversed
// hops are rebuilt from the cached canonical polyline; reversal preserves
// the length).
func (f *FlatOracle) hopSegment(eng geodesic.PathEngine, pts []terrain.SurfacePoint, u, v int32) ([]terrain.SurfacePoint, float64, error) {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	key := packPair(lo, hi)
	f.pathMu.Lock()
	seg, ok := f.segCache[key]
	f.pathMu.Unlock()
	if !ok {
		segPts, length, err := eng.PathTo(pts[lo], pts[hi])
		if err != nil {
			return nil, 0, fmt.Errorf("core: geodesic hop %d→%d: %w", u, v, err)
		}
		seg = pathSeg{pts: segPts, length: length}
		f.pathMu.Lock()
		if f.segCache == nil {
			f.segCache = make(map[uint64]pathSeg)
		}
		if len(f.segCache) < pathSegCacheCap {
			f.segCache[key] = seg
		}
		f.pathMu.Unlock()
	}
	if u == lo {
		return seg.pts, seg.length, nil
	}
	rev := make([]terrain.SurfacePoint, len(seg.pts))
	for i, p := range seg.pts {
		rev[len(rev)-1-i] = p
	}
	return rev, seg.length, nil
}

// --- observability & serialization -------------------------------------------

// Epsilon returns the oracle's error parameter.
func (f *FlatOracle) Epsilon() float64 { return f.eps }

// NumPOIs returns the number of POIs the oracle indexes.
func (f *FlatOracle) NumPOIs() int { return f.npoi }

// Height returns the partition-tree height h.
func (f *FlatOracle) Height() int { return f.height }

// NumPairs returns the size of the node pair set.
func (f *FlatOracle) NumPairs() int { return f.nPairs }

// MemoryBytes reports the oracle's heap-resident size: the struct plus
// whatever the lazy cold-slab decodes have materialized. The body is left
// out on purpose: the container image is counted by MappedBytes — the split
// /statsz reports. (An *Oracle charges its engine's owned slabs itself.)
func (f *FlatOracle) MemoryBytes() int64 {
	return flatStructBytes + f.heapExtra.Load()
}

// inflatedBytes is what MemoryBytes reports once every cold slab present has
// inflated: the most heap the oracle grows to. A budgeted multi load charges
// a flat member this at admission, so the point and mesh slabs later queries
// inflate stay inside the memory budget.
func (f *FlatOracle) inflatedBytes() int64 {
	b := int64(flatStructBytes)
	if f.ptsC != nil {
		b += int64(f.npoi) * pointRecordSize
	}
	if f.meshC != nil {
		b += int64(f.meshRaw) * 2
	}
	return b
}

// MappedBytes reports how many bytes the oracle serves in place from the
// retained container image — the memory-mapped file when loaded through
// one. Part of the MappedIndex interface.
func (f *FlatOracle) MappedBytes() int64 { return int64(len(f.body)) }

// Stats reports the shared observability surface; MappedBytes carries the
// heap-vs-mapped split.
func (f *FlatOracle) Stats() IndexStats {
	return IndexStats{
		Kind:        KindFlat,
		Epsilon:     f.eps,
		Points:      f.npoi,
		Height:      f.height,
		Pairs:       f.nPairs,
		MemoryBytes: f.MemoryBytes(),
		MappedBytes: f.MappedBytes(),
	}
}

// EncodeTo writes the flat container back out: the retained body verbatim
// inside a fresh envelope, so decode → re-encode is byte-identical.
func (f *FlatOracle) EncodeTo(w io.Writer) error {
	return writeContainer(w, KindFlat, []section{bytesSection(secFlat, f.body)})
}

// CheckInvariants validates the unique-node-pair-match property (Theorem 1)
// for a grid of POI pairs. Oracle.CheckInvariants adds the tree-shape and
// separation checks, which need the radii the flat layout drops.
func (f *FlatOracle) CheckInvariants() error {
	step := f.npoi/17 + 1
	for s := 0; s < f.npoi; s += step {
		for t := 0; t < f.npoi; t += step {
			_, cnt, err := f.productScan(int32(s), int32(t), false)
			if err != nil {
				return err
			}
			if cnt != 1 {
				return fmt.Errorf("POIs (%d,%d) matched by %d node pairs, want exactly 1", s, t, cnt)
			}
		}
	}
	return nil
}
