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

// flat.go — the zero-parse container layout (KindFlat) and the FlatOracle
// that queries it in place. A flat container is a normal SEDX envelope
// holding exactly one section (secFlat) whose payload — the "body" — is a
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
// The slot slab is the compacted FKS table (perfecthash.BuildCompact): the
// pair key is re-based to (a<<shift | b) with shift = bits(nNodes), and the
// distance sits inline next to its key, so a lookup is bucket hash → one
// u16 displacement load → slot hash → one key-compare-plus-distance load.
// Distances stay exact float64 bits — flat and decoded layouts answer
// byte-identically.
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
func (o *Oracle) EncodeFlatTo(w io.Writer) error {
	body, err := flatBody(o, o.mesh)
	if err != nil {
		return err
	}
	return writeContainer(w, KindFlat, []section{bytesSection(secFlat, body)})
}

// flatBody assembles the flat body image from a decoded oracle. mesh is the
// terrain to embed as the cold mesh slab — nil when a multi container
// hoists it into a shared section.
func flatBody(o *Oracle, mesh *terrain.Mesh) ([]byte, error) {
	if len(o.pts) != o.npoi {
		return nil, fmt.Errorf("core: oracle carries no point table; the flat layout requires one")
	}
	nNodes := len(o.tree.nodes)
	if nNodes < 1 || o.npoi < 1 || o.layerN < 1 || o.layerN > maxLayers {
		return nil, fmt.Errorf("core: oracle shape (%d nodes, %d POIs, %d layers) has no flat form", nNodes, o.npoi, o.layerN)
	}
	shift := flatShift(nNodes)
	wide := 2*shift > 31

	ckeys := make([]uint64, len(o.keys))
	for i, k := range o.keys {
		a, b := uint32(k>>32), uint32(k)
		if wide {
			ckeys[i] = k
		} else {
			ckeys[i] = uint64(a)<<shift | uint64(b)
		}
	}
	disp, slotOf, seed, err := perfecthash.BuildCompact(ckeys, hashSeed)
	if err != nil {
		return nil, fmt.Errorf("core: compact-hashing node pairs: %w", err)
	}
	nSlots := perfecthash.CompactSlots(len(ckeys))

	// Hot slabs.
	leafB := make([]byte, 4*o.npoi)
	for p, n := range o.tree.leaf {
		binary.LittleEndian.PutUint32(leafB[p*4:], uint32(n))
	}
	pathsB := make([]byte, 4*len(o.paths))
	for i, n := range o.paths {
		binary.LittleEndian.PutUint32(pathsB[i*4:], uint32(n)) // -1 becomes flatNone32
	}
	nodesB := make([]byte, flatNodeStride*nNodes)
	for id, n := range o.tree.nodes {
		rec := nodesB[id*flatNodeStride:]
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.center))
		binary.LittleEndian.PutUint32(rec[4:], uint32(n.parent)) // -1 becomes flatNone32
		binary.LittleEndian.PutUint16(rec[8:], uint16(n.layer))
		binary.LittleEndian.PutUint16(rec[10:], uint16(o.parentLayer(int32(id))))
	}
	dispB := make([]byte, 2*len(disp))
	for i, d := range disp {
		binary.LittleEndian.PutUint16(dispB[i*2:], d)
	}
	stride := flatSlotStride
	if wide {
		stride = flatSlotStrideWide
	}
	slotsB := make([]byte, stride*nSlots)
	for s := 0; s < nSlots; s++ {
		if wide {
			binary.LittleEndian.PutUint64(slotsB[s*stride:], ^uint64(0))
		} else {
			binary.LittleEndian.PutUint32(slotsB[s*stride:], flatNone32)
		}
	}
	for i, s := range slotOf {
		rec := slotsB[int(s)*stride:]
		if wide {
			binary.LittleEndian.PutUint64(rec[0:], ckeys[i])
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(o.dist[i]))
		} else {
			binary.LittleEndian.PutUint32(rec[0:], uint32(ckeys[i]))
			binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(o.dist[i]))
		}
	}

	// Cold slabs: the exact se-container section bytes, flate-compressed, so
	// lazy decoding reuses decodePoints/decodeMesh validation unchanged.
	var pbuf bytes.Buffer
	if err := pointsSection(secPoints, o.pts).write(&pbuf); err != nil {
		return nil, err
	}
	ptsC, err := deflateBytes(pbuf.Bytes())
	if err != nil {
		return nil, err
	}
	slabs := []flatSlab{
		{id: flatSlabLeaf, data: leafB},
		{id: flatSlabPaths, data: pathsB},
		{id: flatSlabNodes, data: nodesB},
		{id: flatSlabDisp, data: dispB},
		{id: flatSlabSlots, data: slotsB},
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
	if wide {
		flags |= flatFlagWide
	}
	binary.LittleEndian.PutUint16(body[4:], flags)
	h := body[flatHeaderOff:]
	binary.LittleEndian.PutUint64(h[0:], math.Float64bits(o.eps))
	binary.LittleEndian.PutUint32(h[8:], uint32(o.npoi))
	binary.LittleEndian.PutUint32(h[12:], uint32(o.layerN))
	binary.LittleEndian.PutUint32(h[16:], uint32(nNodes))
	binary.LittleEndian.PutUint32(h[20:], uint32(o.tree.root))
	binary.LittleEndian.PutUint32(h[24:], uint32(o.tree.height))
	binary.LittleEndian.PutUint32(h[28:], uint32(len(o.keys)))
	binary.LittleEndian.PutUint32(h[32:], uint32(nSlots))
	binary.LittleEndian.PutUint32(h[36:], uint32(len(disp)))
	binary.LittleEndian.PutUint32(h[40:], uint32(len(slabs)))
	binary.LittleEndian.PutUint64(h[48:], math.Float64bits(o.tree.r0))
	binary.LittleEndian.PutUint64(h[56:], seed)
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
// becomes a FlatOracle, and a multi container of SE oracles becomes a multi
// of flat members (a shared mesh stays hoisted — members that tiled one
// terrain adopt it instead of embedding copies). Other kinds, and oracles
// without a point table, have no flat form and return an error.
func ConvertFlat(idx DistanceIndex) (DistanceIndex, error) {
	switch v := idx.(type) {
	case *FlatOracle:
		return v, nil
	case *Oracle:
		return flatFromOracle(v, v.mesh, nil)
	case *ShardedIndex:
		shared := v.sharedMesh()
		members := make([]ShardMember, len(v.members))
		for i, m := range v.members {
			if v.hier != nil && v.hier.levels[v.ord[i]] != 0 {
				// Coarse (level > 0) members are site oracles with no flat
				// form; they ride along unconverted — only the fine tiles
				// carry the hot id-addressed load the flat layout serves.
				members[i] = m
				continue
			}
			o, ok := m.Index.(*Oracle)
			if !ok {
				if _, flat := m.Index.(*FlatOracle); flat {
					members[i] = m
					continue
				}
				return nil, fmt.Errorf("core: member %q (kind %s) has no flat layout", m.Name, m.Index.Stats().Kind)
			}
			embed, adopted := o.mesh, (*terrain.Mesh)(nil)
			if shared != nil && o.mesh == shared {
				embed, adopted = nil, shared
			}
			f, err := flatFromOracle(o, embed, adopted)
			if err != nil {
				return nil, fmt.Errorf("core: converting member %q: %w", m.Name, err)
			}
			members[i] = ShardMember{Name: m.Name, BBox: m.BBox, Index: f}
		}
		out, err := NewShardedIndex(members)
		if err != nil {
			return nil, err
		}
		// The hierarchy is layout-independent routing metadata; carry it so a
		// flat-converted hierarchical index keeps its global id space.
		out.hier, out.ord, out.memAt, out.ordName = v.hier, v.ord, v.memAt, v.ordName
		return out, nil
	default:
		return nil, fmt.Errorf("core: kind %s has no flat layout (flat supports se and multi-of-se)", idx.Stats().Kind)
	}
}

// flatFromOracle encodes o's flat body and decodes it back — the in-memory
// conversion path sebuild -layout=flat and seconvert share with the loader,
// so a converted index is bit-for-bit what a flat load would produce.
func flatFromOracle(o *Oracle, mesh, adopted *terrain.Mesh) (*FlatOracle, error) {
	body, err := flatBody(o, mesh)
	if err != nil {
		return nil, err
	}
	f, err := decodeFlatBody(body, nil)
	if err != nil {
		return nil, fmt.Errorf("core: flat body failed its own validation: %w", err)
	}
	f.adopted = adopted
	return f, nil
}

// --- FlatOracle --------------------------------------------------------------

// FlatOracle is the zero-parse SE oracle: it answers every query of the
// decoded *Oracle by reading the flat container body in place (a memory
// mapping, when loaded through one). The hot Query path touches only the
// fixed-stride slabs; the point table and mesh inflate lazily on the first
// Nearest/NearestK/QueryPath call. Like a decoded oracle it is immutable
// and safe for concurrent use.
type FlatOracle struct {
	body []byte // the secFlat section payload, retained verbatim
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

	// Lazy cold-slab state. heapExtra accumulates the decoded structures'
	// heap cost so MemoryBytes stays truthful without synchronizing on the
	// sync.Once internals.
	ptsOnce   sync.Once
	pts       []terrain.SurfacePoint
	ptsErr    error
	meshOnce  sync.Once
	mesh      *terrain.Mesh
	meshErr   error
	adopted   *terrain.Mesh // shared mesh attached by a multi container
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

// decodeFlatBody is the O(#slabs) structural validation pass: header magic
// and CRC, sane header fields, and a slab directory whose entries are
// in-bounds, 8-aligned, non-overlapping and exactly the lengths the header
// implies. Everything a query later reads is either covered here or bounds-
// guarded at access time, so corrupt content yields errors, never faults.
func decodeFlatBody(body []byte, keep any) (*FlatOracle, error) {
	if len(body) < flatDirOff {
		return nil, fmt.Errorf("flat body truncated (%d bytes)", len(body))
	}
	if string(body[:4]) != flatBodyMagic {
		return nil, fmt.Errorf("bad flat body magic %q", body[:4])
	}
	flags := binary.LittleEndian.Uint16(body[4:])
	if flags&^uint16(flatFlagWide) != 0 {
		return nil, fmt.Errorf("unknown flat flags %#x", flags)
	}
	h := body[flatHeaderOff:]
	nSlabs := int(binary.LittleEndian.Uint32(h[40:]))
	if nSlabs < 1 || nSlabs > flatMaxSlabs {
		return nil, fmt.Errorf("flat body declares %d slabs (want 1..%d)", nSlabs, flatMaxSlabs)
	}
	dirEnd := flatDirOff + nSlabs*flatDirEntryLen
	if len(body) < dirEnd {
		return nil, fmt.Errorf("flat slab directory truncated (%d bytes, need %d)", len(body), dirEnd)
	}
	if stored, computed := binary.LittleEndian.Uint32(body[8:]), crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]); stored != computed {
		return nil, fmt.Errorf("flat header CRC mismatch (stored %#x, computed %#x)", stored, computed)
	}

	f := &FlatOracle{
		body:     body,
		keep:     keep,
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
		return nil, fmt.Errorf("flat header epsilon %g not positive and finite", f.eps)
	}
	if !finite(f.r0) || f.r0 < 0 {
		return nil, fmt.Errorf("flat header r0 %g invalid", f.r0)
	}
	if f.npoi < 1 || f.npoi > 1<<30 {
		return nil, fmt.Errorf("flat header declares %d POIs", f.npoi)
	}
	if f.layerN < 1 || f.layerN > maxLayers || f.height != f.layerN-1 {
		return nil, fmt.Errorf("flat header layers %d / height %d inconsistent", f.layerN, f.height)
	}
	if f.nNodes < 1 || f.nNodes > 1<<30 || f.root < 0 || int(f.root) >= f.nNodes {
		return nil, fmt.Errorf("flat header declares %d nodes, root %d", f.nNodes, f.root)
	}
	if f.nPairs < 0 || f.nPairs > 1<<30 ||
		f.nSlots != perfecthash.CompactSlots(f.nPairs) ||
		f.nBuckets != perfecthash.CompactBuckets(f.nPairs) {
		return nil, fmt.Errorf("flat header hash shape (%d pairs, %d slots, %d buckets) inconsistent",
			f.nPairs, f.nSlots, f.nBuckets)
	}
	f.shift = flatShift(f.nNodes)
	if f.wide != (2*f.shift > 31) {
		return nil, fmt.Errorf("flat wide flag %v inconsistent with %d nodes", f.wide, f.nNodes)
	}
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

// checkIDs validates POI ids against the header, mirroring Oracle.checkIDs.
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

// Query returns the ε-approximate geodesic distance between POIs s and t,
// reading only the mapped hot slabs — the two-loads-per-probe path the flat
// layout exists for. Zero heap allocations on success; mirrors
// Oracle.Query answer-for-answer (identical float64 bits).
//
//sealint:hotpath
func (f *FlatOracle) Query(s, t int32) (float64, error) {
	if err := f.checkIDs(s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	d, _, _, err := f.queryPair(s, t)
	return d, err
}

// queryPair is Oracle.queryPair over the byte slabs: the same-layer scan
// plus the first-higher and first-lower passes of §3.4, returning the
// matched node pair for QueryPath. Node ids read from the paths slab are
// bounds-guarded before they index the nodes slab, so corrupt content
// errors instead of faulting.
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

// QueryBatch answers pairs[i] into dst[i] with the decoded oracle's batch
// contract: cap(dst) >= len(pairs) performs no allocations, the first
// invalid pair returns the filled prefix and the error.
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
// the zero-allocation batch path. Part of the MatrixIndex interface.
func (f *FlatOracle) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return MatrixViaBatch(f, sources, targets, dst)
}

// --- lazy cold slabs ---------------------------------------------------------

// points inflates and validates the point slab on first use; Query never
// calls this, which is what keeps cold start O(1).
func (f *FlatOracle) points() ([]terrain.SurfacePoint, error) {
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
// (inflated and rebuilt on first use) or the shared mesh a multi container
// attached; ErrNoPathGeometry when the oracle carries neither.
func (f *FlatOracle) meshRef() (*terrain.Mesh, error) {
	if f.meshC == nil {
		if f.adopted != nil {
			return f.adopted, nil
		}
		return nil, ErrNoPathGeometry
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
// decoded, or adopted from a multi container), nil otherwise. It never
// triggers the lazy inflate; parity tests and the encoder use it.
func (f *FlatOracle) Mesh() *terrain.Mesh {
	if f.adopted != nil && f.meshC == nil {
		return f.adopted
	}
	return f.mesh
}

// Points returns the lazily decoded POI point table.
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
	ids := make([]int32, f.npoi)
	for i := range ids {
		ids[i] = int32(i)
	}
	return reachableScan(f, ids, func(id int32) terrain.SurfacePoint { return pts[id] }, src, d)
}

// --- path queries ------------------------------------------------------------

// pathSetup resolves the point table, the terrain and the geodesic engine,
// validating every POI anchor against the mesh exactly once — the flat
// counterpart of the checks the se decoders run eagerly.
func (f *FlatOracle) pathSetup() (geodesic.PathEngine, []terrain.SurfacePoint, error) {
	pts, err := f.points()
	if err != nil {
		return nil, nil, err
	}
	m, err := f.meshRef()
	if err != nil {
		return nil, nil, err
	}
	f.pathMu.Lock()
	defer f.pathMu.Unlock()
	if f.pengErr != nil {
		return nil, nil, f.pengErr
	}
	if f.peng == nil {
		for i, p := range pts {
			if err := checkMeshPoint(p, m); err != nil {
				f.pengErr = fmt.Errorf("core: flat POI %d against the mesh: %w", i, err)
				return nil, nil, f.pengErr
			}
		}
		f.peng = geodesic.NewExact(m)
	}
	return f.peng, pts, nil
}

// QueryPath returns the ε-approximate highway path between POIs s and t —
// Oracle.QueryPath over the mapped slabs, with the same hop cache and the
// same polyline (flat and decoded paths are byte-identical).
func (f *FlatOracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	if err := f.checkIDs(s, t); err != nil {
		return nil, 0, err
	}
	if s == t {
		pts, err := f.points()
		if err != nil {
			return nil, 0, err
		}
		p := pts[s]
		return []terrain.SurfacePoint{p, p}, 0, nil
	}
	_, na, nb, err := f.queryPair(s, t)
	if err != nil {
		return nil, 0, err
	}
	eng, pts, err := f.pathSetup()
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
			path = append(path, seg[1:]...)
		}
		total += segLen
	}
	return path, total, nil
}

// centerSequence mirrors Oracle.centerSequence over the leaf and nodes
// slabs.
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

// appendCenterChain walks POI p's leaf-to-node parent chain through the
// nodes slab, bounds-guarding every hop (and bounding the walk's length, so
// a corrupt parent cycle terminates with an error instead of spinning).
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

// hopSegment serves and fills the canonical-direction geodesic hop cache —
// Oracle.hopSegment with the point table passed in (it is lazily decoded
// here).
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
// whatever the lazy cold-slab decodes have materialized. The container
// image itself is counted by MappedBytes — the split /statsz reports.
func (f *FlatOracle) MemoryBytes() int64 {
	return flatStructBytes + f.heapExtra.Load()
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
// for a grid of POI pairs — the flat counterpart of Oracle.CheckInvariants'
// sampled check (the tree-shape and separation checks need the decoded
// radii, which the flat layout deliberately drops).
func (f *FlatOracle) CheckInvariants() error {
	step := f.npoi/17 + 1
	for s := 0; s < f.npoi; s += step {
		for t := 0; t < f.npoi; t += step {
			cnt, err := f.countMatches(int32(s), int32(t))
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

// countMatches counts node pairs containing (s, t) over the full A_s × A_t
// product.
func (f *FlatOracle) countMatches(s, t int32) (int, error) {
	as := f.pathRow(s)
	at := f.pathRow(t)
	nn := uint32(f.nNodes)
	cnt := 0
	for i := 0; i < f.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		if a == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, f.errFlatCorrupt("path node", a)
		}
		for j := 0; j < f.layerN; j++ {
			b := binary.LittleEndian.Uint32(at[j*4:])
			if b == flatNone32 {
				continue
			}
			if b >= nn {
				return 0, f.errFlatCorrupt("path node", b)
			}
			if _, ok := f.lookup(a, b); ok {
				cnt++
			}
		}
	}
	return cnt, nil
}
