package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// DynamicOracle extends SE with POI insertion and deletion — the future
// work the paper's conclusion sketches ("how to efficiently update the
// distance oracle when there is an update on some POIs").
//
// Design: the bulk of the POIs live in a regular SE oracle. Insertions go
// to a small overflow set whose distances to every live POI are computed
// once with one SSAD per inserted point (exact, so queries touching
// overflow POIs have zero additional error). Deletions are tombstones.
// When the overflow or tombstone share crosses RebuildFactor, the oracle is
// rebuilt from scratch in amortized O(build/n) time per update.
type DynamicOracle struct {
	eng  geodesic.Engine
	mesh *terrain.Mesh // retained for serialization; the engine is rebuilt from it on load
	opt  Options
	base *Oracle

	pois    []terrain.SurfacePoint // all POIs ever inserted, by public id
	baseIdx []int32                // public id -> base oracle id, or -1
	deleted []bool

	overflow     map[int32][]float64 // public id -> exact distances to all public ids
	liveCount    int
	basePOICount int

	// RebuildFactor is the overflow/tombstone share that triggers a
	// rebuild; 0.25 by default.
	RebuildFactor float64
	rebuilds      int
}

// NewDynamicOracle builds a dynamic oracle over the initial POI set. The
// mesh m is the terrain eng computes on; it is retained so EncodeTo can
// serialize a self-contained container (from which Load rebuilds the
// engine). It may be nil when the oracle will never be serialized.
func NewDynamicOracle(eng geodesic.Engine, m *terrain.Mesh, pois []terrain.SurfacePoint, opt Options) (*DynamicOracle, error) {
	d := &DynamicOracle{
		eng:           eng,
		mesh:          m,
		opt:           opt,
		RebuildFactor: 0.25,
		overflow:      map[int32][]float64{},
	}
	d.pois = append(d.pois, pois...)
	d.deleted = make([]bool, len(pois))
	d.liveCount = len(pois)
	if err := d.rebuild(); err != nil {
		return nil, err
	}
	return d, nil
}

// rebuild folds overflow and tombstones into a fresh base oracle.
func (d *DynamicOracle) rebuild() error {
	live := make([]terrain.SurfacePoint, 0, d.liveCount)
	d.baseIdx = make([]int32, len(d.pois))
	for id := range d.pois {
		if d.deleted[id] {
			d.baseIdx[id] = -1
			continue
		}
		d.baseIdx[id] = int32(len(live))
		live = append(live, d.pois[id])
	}
	if len(live) == 0 {
		return fmt.Errorf("core: dynamic oracle has no live POIs")
	}
	o, err := Build(d.eng, live, d.opt)
	if err != nil {
		return err
	}
	d.base = o
	d.basePOICount = len(live)
	d.overflow = map[int32][]float64{}
	d.rebuilds++
	return nil
}

// Insert adds a POI and returns its public id.
func (d *DynamicOracle) Insert(p terrain.SurfacePoint) (int32, error) {
	id := int32(len(d.pois))
	d.pois = append(d.pois, p)
	d.deleted = append(d.deleted, false)
	d.baseIdx = append(d.baseIdx, -1)
	d.liveCount++

	// Exact distances from the new POI to every existing public id (one
	// SSAD); also extend previously stored overflow rows.
	dist := d.eng.DistancesTo(p, d.pois, geodesic.Stop{CoverTargets: true})
	d.overflow[id] = dist
	for oid, row := range d.overflow {
		if oid == id {
			continue
		}
		d.overflow[oid] = append(row, dist[oid])
	}
	if d.pending() {
		if err := d.rebuild(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// Delete tombstones a POI.
func (d *DynamicOracle) Delete(id int32) error {
	if id < 0 || int(id) >= len(d.pois) {
		return fmt.Errorf("core: POI id %d out of range", id)
	}
	if d.deleted[id] {
		return fmt.Errorf("core: POI %d already deleted", id)
	}
	d.deleted[id] = true
	d.liveCount--
	delete(d.overflow, id)
	if d.liveCount == 0 {
		return fmt.Errorf("core: deleted the last POI")
	}
	if d.pending() {
		return d.rebuild()
	}
	return nil
}

// pending reports whether accumulated updates warrant a rebuild.
func (d *DynamicOracle) pending() bool {
	churn := len(d.overflow) + (d.basePOICount - d.liveBaseCount())
	return float64(churn) > d.RebuildFactor*float64(max(d.liveCount, 1))
}

func (d *DynamicOracle) liveBaseCount() int {
	n := 0
	for id, bi := range d.baseIdx {
		if bi >= 0 && !d.deleted[id] {
			n++
		}
	}
	return n
}

// Query returns the ε-approximate distance between two live POIs (exact
// when either is still in the overflow set).
func (d *DynamicOracle) Query(s, t int32) (float64, error) {
	if err := d.check(s); err != nil {
		return 0, err
	}
	if err := d.check(t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	if row, ok := d.overflow[s]; ok {
		return d.overflowDist(row, s, t)
	}
	if row, ok := d.overflow[t]; ok {
		return d.overflowDist(row, t, s)
	}
	return d.base.Query(d.baseIdx[s], d.baseIdx[t])
}

// overflowDist reads the exact distance of an overflow row, tolerating rows
// recorded before the peer existed (then the peer's own row has it).
func (d *DynamicOracle) overflowDist(row []float64, owner, peer int32) (float64, error) {
	if int(peer) < len(row) {
		return row[peer], nil
	}
	if prow, ok := d.overflow[peer]; ok && int(owner) < len(prow) {
		return prow[owner], nil
	}
	return 0, fmt.Errorf("core: missing overflow distance (%d,%d)", owner, peer)
}

func (d *DynamicOracle) check(id int32) error {
	if id < 0 || int(id) >= len(d.pois) {
		return fmt.Errorf("core: POI id %d out of range", id)
	}
	if d.deleted[id] {
		return fmt.Errorf("core: POI %d is deleted", id)
	}
	return nil
}

// Live returns the number of live POIs.
func (d *DynamicOracle) Live() int { return d.liveCount }

// Rebuilds returns how many base rebuilds have happened (1 after
// construction).
func (d *DynamicOracle) Rebuilds() int { return d.rebuilds }

// MemoryBytes accounts the base oracle plus overflow rows.
func (d *DynamicOracle) MemoryBytes() int64 {
	b := d.base.MemoryBytes()
	for _, row := range d.overflow {
		b += int64(len(row)) * 8
	}
	b += int64(len(d.pois))*40 + int64(len(d.baseIdx))*4 + int64(len(d.deleted))
	return b
}

// Epsilon returns the error parameter; overflow-touching queries are exact,
// all others inherit the base oracle's ε.
func (d *DynamicOracle) Epsilon() float64 { return d.opt.Epsilon }

// QueryBatch answers pairs[i] into dst[i]. Part of the DistanceIndex
// interface; with a preallocated dst it allocates only what Query does.
func (d *DynamicOracle) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return BatchViaQuery(d.Query, pairs, dst)
}

// LiveIDs returns the public ids of all live POIs, in id order — the valid
// id space for Query (tombstoned ids error).
func (d *DynamicOracle) LiveIDs() []int32 {
	ids := make([]int32, 0, d.liveCount)
	for id := range d.pois {
		if !d.deleted[id] {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// Stats reports the shared DistanceIndex observability surface, including
// the churn counters that drive the amortized rebuild.
func (d *DynamicOracle) Stats() IndexStats {
	st := d.base.Stats()
	st.Kind = KindDynamic
	st.Epsilon = d.opt.Epsilon
	st.Points = d.liveCount
	st.MemoryBytes = d.MemoryBytes()
	st.Live = d.liveCount
	st.Overflow = len(d.overflow)
	st.Tombstones = len(d.pois) - d.liveCount
	st.Rebuilds = d.rebuilds
	return st
}

// Nearest returns the live POI whose x-y projection is closest to (x, y).
func (d *DynamicOracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	return nearestScan(d.pois, func(id int32) bool { return d.deleted[id] }, x, y)
}

// EncodeTo writes the dynamic oracle as a tagged container (kind
// "dynamic"): the base oracle body, the terrain mesh, and the dynamic
// state — every POI ever inserted, the base-id map, tombstones, and the
// exact overflow rows. Loading rebuilds the geodesic engine from the mesh,
// so a loaded oracle supports further Insert/Delete (and the amortized
// rebuild) without any SSAD at load time.
func (d *DynamicOracle) EncodeTo(w io.Writer) error {
	if d.mesh == nil {
		return fmt.Errorf("core: dynamic oracle built without a mesh cannot be serialized: %w", ErrNotEncodable)
	}
	ids := sortedOverflowIDs(d.overflow)
	// Exact dynState size: options header + length-prefixed POI table +
	// base-id map + tombstones + overflow rows. Declared up front so the
	// payload streams; writeContainer rejects any mismatch.
	stLen := 8 + 8 + 8 + 1 + 8 + 8 + // eps, selection, seed, naive, rebuild factor, rebuilds
		8 + pointsSectionLen(d.pois) + // POI table with its length prefix
		8 + uint64(len(d.baseIdx))*4 + // base-id map
		uint64(len(d.deleted)) + // tombstones
		8 // overflow count
	for _, id := range ids {
		stLen += 4 + 8 + uint64(len(d.overflow[id]))*8
	}
	writeState := func(w io.Writer) error {
		put := func(vs ...interface{}) error {
			for _, v := range vs {
				if err := binary.Write(w, binary.LittleEndian, v); err != nil {
					return err
				}
			}
			return nil
		}
		naive := uint8(0)
		if d.opt.NaivePairDistances {
			naive = 1
		}
		if err := put(d.opt.Epsilon, int64(d.opt.Selection), d.opt.Seed, naive,
			d.RebuildFactor, int64(d.rebuilds)); err != nil {
			return err
		}
		if err := put(int64(pointsSectionLen(d.pois))); err != nil {
			return err
		}
		if err := pointsSection(0, d.pois).write(w); err != nil {
			return err
		}
		if err := encodeInt32s(w, d.baseIdx); err != nil {
			return err
		}
		del := make([]uint8, len(d.deleted))
		for i, t := range d.deleted {
			if t {
				del[i] = 1
			}
		}
		if err := put(del, int64(len(ids))); err != nil {
			return err
		}
		for _, id := range ids {
			row := d.overflow[id]
			if err := put(id, int64(len(row)), row); err != nil {
				return err
			}
		}
		return nil
	}
	return writeContainer(w, KindDynamic, []section{
		d.base.bodySection(),
		meshSection(secMesh, d.mesh),
		{id: secDynState, length: stLen, write: writeState},
	})
}

// decodeDynamicContainer rebuilds a *DynamicOracle from a dynamic-kind
// section map, revalidating the base-id map, tombstones and overflow rows
// against each other before the query path may trust them.
func decodeDynamicContainer(secs map[uint32][]byte) (DistanceIndex, error) {
	if err := requireSections(secs, secOracle, secMesh, secDynState); err != nil {
		return nil, err
	}
	obr := bytes.NewReader(secs[secOracle])
	base, err := decodeBody(obr)
	if err != nil {
		return nil, err
	}
	if err := expectDrained(obr, "oracle section"); err != nil {
		return nil, err
	}
	mesh, err := decodeMesh(secs[secMesh])
	if err != nil {
		return nil, fmt.Errorf("mesh section: %w", err)
	}
	r := bytes.NewReader(secs[secDynState])
	get := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(r, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var eps, rebuildFactor float64
	var selection, seed, rebuilds, poisLen int64
	var naive uint8
	if err := get(&eps, &selection, &seed, &naive, &rebuildFactor, &rebuilds, &poisLen); err != nil {
		return nil, fmt.Errorf("dynamic state header: %w", err)
	}
	if !finite(eps) || eps <= 0 ||
		math.IsNaN(rebuildFactor) || rebuildFactor <= 0 || rebuildFactor > 1e6 ||
		rebuilds < 0 || selection < 0 || selection > 1 ||
		poisLen < 0 || int64(r.Len()) < poisLen {
		return nil, fmt.Errorf("implausible dynamic state header")
	}
	poisSec := make([]byte, poisLen)
	if _, err := io.ReadFull(r, poisSec); err != nil {
		return nil, fmt.Errorf("dynamic POI table: %w", err)
	}
	pois, err := decodePoints(poisSec)
	if err != nil {
		return nil, fmt.Errorf("dynamic POI table: %w", err)
	}
	for i, p := range pois {
		if err := checkMeshPoint(p, mesh); err != nil {
			return nil, fmt.Errorf("dynamic POI %d: %w", i, err)
		}
	}
	baseIdx, err := decodeInt32s(r)
	if err != nil {
		return nil, fmt.Errorf("dynamic base-id map: %w", err)
	}
	if len(baseIdx) != len(pois) {
		return nil, fmt.Errorf("base-id map covers %d of %d POIs", len(baseIdx), len(pois))
	}
	del, err := decodeSlice[uint8](r, int64(len(pois)))
	if err != nil {
		return nil, fmt.Errorf("dynamic tombstones: %w", err)
	}
	eng := geodesic.NewExact(mesh)
	// The base oracle shares the dynamic oracle's mesh and engine so
	// QueryPath works after a load (the dynamic container carries one mesh;
	// the base body stays mesh-free).
	base.flat.mesh, base.flat.peng = mesh, eng
	d := &DynamicOracle{
		eng:           eng,
		mesh:          mesh,
		opt:           Options{Epsilon: eps, Selection: Selection(selection), Seed: seed, NaivePairDistances: naive != 0},
		base:          base,
		pois:          pois,
		baseIdx:       baseIdx,
		deleted:       make([]bool, len(pois)),
		overflow:      map[int32][]float64{},
		RebuildFactor: rebuildFactor,
		rebuilds:      int(rebuilds),
		basePOICount:  base.NumPOIs(),
	}
	for i, v := range del {
		if v > 1 {
			return nil, fmt.Errorf("tombstone %d has value %d", i, v)
		}
		d.deleted[i] = v == 1
		if v == 0 {
			d.liveCount++
		}
	}
	if d.liveCount == 0 {
		return nil, fmt.Errorf("dynamic oracle has no live POIs")
	}
	// The base-id map must cover the base oracle exactly once; rebuilding
	// it also recovers the base oracle's point table (its POIs are the
	// mapped subset, in base-id order).
	basePts := make([]terrain.SurfacePoint, base.NumPOIs())
	claimed := make([]bool, base.NumPOIs())
	mapped := 0
	for id, bi := range baseIdx {
		if bi == -1 {
			continue
		}
		if bi < 0 || int(bi) >= base.NumPOIs() {
			return nil, fmt.Errorf("POI %d maps to base id %d (of %d)", id, bi, base.NumPOIs())
		}
		if claimed[bi] {
			return nil, fmt.Errorf("base id %d claimed by two POIs", bi)
		}
		claimed[bi] = true
		basePts[bi] = pois[id]
		mapped++
	}
	if mapped != base.NumPOIs() {
		return nil, fmt.Errorf("base-id map covers %d of %d base POIs", mapped, base.NumPOIs())
	}
	base.flat.pts = basePts
	var nOverflow int64
	if err := get(&nOverflow); err != nil {
		return nil, fmt.Errorf("overflow header: %w", err)
	}
	if nOverflow < 0 || nOverflow > int64(len(pois)) {
		return nil, fmt.Errorf("implausible overflow count %d", nOverflow)
	}
	prev := int32(-1)
	for i := int64(0); i < nOverflow; i++ {
		var id int32
		var rowLen int64
		if err := get(&id, &rowLen); err != nil {
			return nil, fmt.Errorf("overflow row %d: %w", i, err)
		}
		if id <= prev || int(id) >= len(pois) {
			return nil, fmt.Errorf("overflow id %d out of order or range", id)
		}
		prev = id
		if d.deleted[id] {
			return nil, fmt.Errorf("overflow id %d is tombstoned", id)
		}
		if d.baseIdx[id] != -1 {
			return nil, fmt.Errorf("overflow id %d is also in the base oracle", id)
		}
		if rowLen < 0 || rowLen > int64(len(pois)) {
			return nil, fmt.Errorf("overflow row %d has %d entries for %d POIs", id, rowLen, len(pois))
		}
		row, err := decodeSlice[float64](r, rowLen)
		if err != nil {
			return nil, fmt.Errorf("overflow row %d: %w", id, err)
		}
		for j, v := range row {
			if math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("overflow row %d entry %d has invalid distance %g", id, j, v)
			}
		}
		d.overflow[id] = row
	}
	if err := expectDrained(r, "dynamic state section"); err != nil {
		return nil, err
	}
	return d, nil
}
