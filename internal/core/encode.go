package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seoracle/internal/perfecthash"
	"seoracle/internal/terrain"
)

// Binary serialization of the SE oracle body. The body is versionless and
// self-contained: the perfect hash is rebuilt deterministically from the
// stored keys on load, so only the logical content is written. The tagged
// container of container.go carries it as the secOracle section.
const hashSeed = 0x5e0ac1e

// decodeChunk bounds how many elements a decoder materializes per read, so the
// memory committed before a truncated stream hits EOF stays proportional to
// the data actually present.
const decodeChunk = 1 << 16

// capHint clamps a header-declared length to a safe initial capacity.
func capHint(n int64) int {
	if n > decodeChunk {
		return decodeChunk
	}
	return int(n)
}

// decodeSlice reads n little-endian values in bounded chunks.
func decodeSlice[T any](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, capHint(n))
	for int64(len(out)) < n {
		c := n - int64(len(out))
		if c > decodeChunk {
			c = decodeChunk
		}
		buf := make([]T, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// encodeBody writes the oracle's logical content (everything but an
// envelope): eps, sizes, tree nodes, leaf map and the node-pair set.
func (o *Oracle) encodeBody(w io.Writer) error {
	put := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(o.eps,
		int64(o.npoi), int64(o.tree.height), int64(o.tree.root), o.tree.r0,
		int64(len(o.tree.nodes)), int64(len(o.keys))); err != nil {
		return err
	}
	for _, n := range o.tree.nodes {
		if err := put(n.center, n.layer, n.parent, n.radius); err != nil {
			return err
		}
	}
	if err := put(o.tree.leaf); err != nil {
		return err
	}
	return put(o.keys, o.dist)
}

// decodeBody reads an oracle body written by encodeBody, validating every
// structural property the query path later trusts.
func decodeBody(br io.Reader) (*Oracle, error) {
	get := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var eps, r0 float64
	var npoi, height, root, nNodes, nPairs int64
	if err := get(&eps, &npoi, &height, &root, &r0, &nNodes, &nPairs); err != nil {
		return nil, fmt.Errorf("core: decoding header: %w", err)
	}
	if npoi <= 0 || nNodes <= 0 || nPairs < 0 || npoi > 1<<40 || nNodes > 1<<40 || nPairs > 1<<40 {
		return nil, fmt.Errorf("core: implausible sizes npoi=%d nodes=%d pairs=%d", npoi, nNodes, nPairs)
	}
	// Bound the height before anything derives layerN from it: Build caps
	// trees at maxLayers, so a larger header value is corruption — and the
	// O(npoi·height) path slab would otherwise turn it into a giant
	// allocation (or an int-overflow panic) right here in the decoder.
	if height < 0 || height >= maxLayers {
		return nil, fmt.Errorf("core: implausible tree height %d (max %d)", height, maxLayers-1)
	}
	if root < 0 || root >= nNodes {
		return nil, fmt.Errorf("core: root %d out of range", root)
	}
	ct := &ctree{height: int32(height), root: int32(root), r0: r0}
	// Grow incrementally with a bounded initial capacity: a corrupt header
	// claiming a huge count then fails at EOF instead of attempting one
	// giant allocation.
	ct.nodes = make([]cnode, 0, capHint(nNodes))
	for i := int64(0); i < nNodes; i++ {
		var n cnode
		if err := get(&n.center, &n.layer, &n.parent, &n.radius); err != nil {
			return nil, fmt.Errorf("core: decoding node %d: %w", i, err)
		}
		if n.parent >= int32(nNodes) || n.center < 0 || n.center >= int32(npoi) {
			return nil, fmt.Errorf("core: node %d references out of range", i)
		}
		if n.layer < 0 || n.layer > int32(height) {
			return nil, fmt.Errorf("core: node %d layer %d outside [0,%d]", i, n.layer, height)
		}
		ct.nodes = append(ct.nodes, n)
	}
	for i := range ct.nodes {
		if p := ct.nodes[i].parent; p >= 0 {
			// Layers must strictly decrease towards the root; this also rules
			// out parent cycles, which the leaf-to-root walks below (and the
			// path-slab build) would otherwise never escape.
			if ct.nodes[p].layer >= ct.nodes[i].layer {
				return nil, fmt.Errorf("core: node %d (layer %d) has parent %d at layer >= it", i, ct.nodes[i].layer, p)
			}
			ct.nodes[p].children = append(ct.nodes[p].children, int32(i))
		}
	}
	leaf, err := decodeSlice[int32](br, npoi)
	if err != nil {
		return nil, fmt.Errorf("core: decoding leaf map: %w", err)
	}
	ct.leaf = leaf
	for poi, l := range ct.leaf {
		if l < 0 || int64(l) >= nNodes {
			return nil, fmt.Errorf("core: leaf of POI %d out of range", poi)
		}
	}
	keys, err := decodeSlice[uint64](br, nPairs)
	if err != nil {
		return nil, fmt.Errorf("core: decoding pairs: %w", err)
	}
	dist, err := decodeSlice[float64](br, nPairs)
	if err != nil {
		return nil, fmt.Errorf("core: decoding pairs: %w", err)
	}
	for i, d := range dist {
		if math.IsNaN(d) || d < 0 {
			return nil, fmt.Errorf("core: pair %d has invalid distance %g", i, d)
		}
	}
	hash, err := perfecthash.Build(keys, hashSeed)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding hash: %w", err)
	}
	o := &Oracle{
		eps:    eps,
		tree:   ct,
		hash:   hash,
		keys:   keys,
		dist:   dist,
		npoi:   int(npoi),
		layerN: int(height) + 1,
	}
	// The path slab is derived state: recompute it rather than trusting (or
	// paying for) a serialized copy.
	o.buildPathSlab()
	return o, nil
}

// bodyLen returns the exact encodeBody output size — the section length the
// container frame declares, so serialization streams instead of buffering
// the body.
func (o *Oracle) bodyLen() uint64 {
	return 56 + // eps, npoi, height, root, r0, nNodes, nPairs
		uint64(len(o.tree.nodes))*20 + // center, layer, parent int32 + radius float64
		uint64(len(o.tree.leaf))*4 +
		uint64(len(o.keys))*8 +
		uint64(len(o.dist))*8
}

// bodySection frames the oracle body as a streamed container section.
func (o *Oracle) bodySection() section {
	return section{id: secOracle, length: o.bodyLen(), write: o.encodeBody}
}

// EncodeTo writes the oracle as a tagged container (kind "se"): the oracle
// body, the POI point table that backs Nearest, and — when the oracle
// retains one — the terrain mesh that backs QueryPath, so path reporting
// survives the round trip. Part of the DistanceIndex interface.
func (o *Oracle) EncodeTo(w io.Writer) error { return o.encodeContainer(w, o.mesh) }

// encodeContainer writes the SE container with an explicit mesh choice:
// EncodeTo passes the oracle's own mesh, while a multi container passes nil
// for members whose mesh it hoists into one shared section (sharded.go) —
// the tiles of one terrain would otherwise each embed an identical copy.
func (o *Oracle) encodeContainer(w io.Writer, mesh *terrain.Mesh) error {
	secs := []section{o.bodySection()}
	if o.pts != nil {
		secs = append(secs, pointsSection(secPoints, o.pts))
	}
	if mesh != nil {
		secs = append(secs, meshSection(secMesh, mesh))
	}
	return writeContainer(w, KindSE, secs)
}

// decodeSEContainer rebuilds an *Oracle from an SE-kind section map. A mesh
// section (optional: pre-path files and mesh-less builds carry none)
// restores path reporting; the path engine itself is derived state, rebuilt
// lazily on the first QueryPath.
func decodeSEContainer(secs map[uint32][]byte) (DistanceIndex, error) {
	if err := requireSections(secs, secOracle); err != nil {
		return nil, err
	}
	br := bytes.NewReader(secs[secOracle])
	o, err := decodeBody(br)
	if err != nil {
		return nil, err
	}
	if err := expectDrained(br, "oracle section"); err != nil {
		return nil, err
	}
	if payload, ok := secs[secPoints]; ok {
		pts, err := decodePoints(payload)
		if err != nil {
			return nil, fmt.Errorf("point table: %w", err)
		}
		if len(pts) != o.npoi {
			return nil, fmt.Errorf("point table holds %d points for %d POIs", len(pts), o.npoi)
		}
		o.pts = pts
	}
	if payload, ok := secs[secMesh]; ok {
		mesh, err := decodeMesh(payload)
		if err != nil {
			return nil, fmt.Errorf("mesh section: %w", err)
		}
		// The POIs feed the geodesic engine's array indexing; bounds must
		// hold against the mesh before QueryPath may trust them.
		for i, p := range o.pts {
			if err := checkMeshPoint(p, mesh); err != nil {
				return nil, fmt.Errorf("POI %d: %w", i, err)
			}
		}
		o.mesh = mesh
	}
	return o, nil
}
