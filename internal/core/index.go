package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"seoracle/internal/terrain"
)

// Kind tags the concrete query-engine type behind a DistanceIndex. It is
// written into every serialized container so Load can return the right
// concrete type without the caller knowing what was built.
type Kind uint16

const (
	// KindSE is the POI-to-POI SE oracle of §3 (*Oracle).
	KindSE Kind = 1
	// KindA2A is the arbitrary-point site oracle of Appendix C/D
	// (*SiteOracle).
	KindA2A Kind = 2
	// KindDynamic is the insert/delete-capable oracle (*DynamicOracle).
	KindDynamic Kind = 3
	// KindMulti is the sharded multi-index container (*ShardedIndex): a
	// manifest of named members (each with a planar bbox) bundling several
	// indexes of the other kinds into one serving unit.
	KindMulti Kind = 4
	// KindFlat is the zero-parse flat layout of the SE oracle
	// (*FlatOracle): a pointer-free slab image queried in place from the
	// loaded bytes — typically a memory mapping — with no decode pass.
	KindFlat Kind = 5
)

// String returns the kind's human-readable name ("se", "a2a", "dynamic",
// "multi"), the form the CLI and the serving layer print.
func (k Kind) String() string {
	switch k {
	case KindSE:
		return "se"
	case KindA2A:
		return "a2a"
	case KindDynamic:
		return "dynamic"
	case KindMulti:
		return "multi"
	case KindFlat:
		return "flat"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// MarshalJSON renders the kind as its human-readable name, the form the
// serving layer's /healthz and /statsz endpoints expose.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// ErrNotEncodable is returned by EncodeTo on indexes that have no container
// serialization (e.g. the full-materialization baseline).
var ErrNotEncodable = errors.New("core: index kind has no container serialization")

// IndexStats is the shared observability surface of every DistanceIndex:
// one flat struct the serving layer can marshal as /statsz, covering the
// common size/shape numbers plus the kind-specific counters (site regime
// split, dynamic churn). Fields that do not apply to a kind are zero.
type IndexStats struct {
	Kind        Kind    `json:"kind"`
	Epsilon     float64 `json:"epsilon"`
	Points      int     `json:"points"` // indexed endpoints: POIs, sites, or live POIs
	Height      int     `json:"height"`
	Pairs       int     `json:"pairs"`
	MemoryBytes int64   `json:"memory_bytes"`

	// MappedBytes is the slice of the index served in place from a retained
	// container image (a memory-mapped file) rather than decoded onto the
	// heap; zero for fully decoded kinds. MemoryBytes and MappedBytes
	// together are the index's resident footprint — the split /statsz
	// reports so operators can see what the flat layout saves.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`

	// Build carries the construction-phase statistics; zero for indexes
	// loaded from a container (construction happened in another process).
	Build BuildStats `json:"build"`

	// A2A (KindA2A) regime counters.
	Sites          int     `json:"sites,omitempty"`
	SitesPerEdge   int     `json:"sites_per_edge,omitempty"`
	SiteSpacing    float64 `json:"site_spacing,omitempty"`
	LocalThreshold float64 `json:"local_threshold,omitempty"`
	LocalQueries   int64   `json:"local_queries,omitempty"`

	// Dynamic (KindDynamic) churn counters.
	Live       int `json:"live,omitempty"`
	Overflow   int `json:"overflow,omitempty"`
	Tombstones int `json:"tombstones,omitempty"`
	Rebuilds   int `json:"rebuilds,omitempty"`

	// Members is the member count of a multi index (KindMulti); its other
	// fields aggregate the members (sums; max for Height and Epsilon).
	Members int `json:"members,omitempty"`

	// Hierarchical multi (KindMulti with an LOD hierarchy) resident-set and
	// routing counters; zero on legacy flat-grid multis. See TileStats for
	// the full observability block.
	TilesResident   int   `json:"tiles_resident,omitempty"`
	TileBudgetBytes int64 `json:"tile_budget_bytes,omitempty"`
	TileFaults      int64 `json:"tile_faults,omitempty"`
	TileEvictions   int64 `json:"tile_evictions,omitempty"`
	PortalQueries   int64 `json:"portal_queries,omitempty"`
	CoarseQueries   int64 `json:"coarse_queries,omitempty"`
}

// DistanceIndex is the one abstraction over every query engine the repo
// implements: the SE Oracle, the A2A SiteOracle (queried between its site
// ids here; see PointIndex for arbitrary points), the DynamicOracle, and
// the full-materialization baseline. The serving layer, the CLI tools and
// the container loader all speak this interface.
//
// Query and QueryBatch address endpoints by index id — POI ids for SE and
// dynamic oracles, site ids for the A2A oracle. Implementations must be
// safe for concurrent Query/QueryBatch/Stats/MemoryBytes use once built or
// loaded (DynamicOracle only while no Insert/Delete runs concurrently).
type DistanceIndex interface {
	// Query returns the ε-approximate geodesic distance between two
	// indexed endpoints.
	Query(s, t int32) (float64, error)
	// QueryBatch answers pairs[i] into dst[i] and returns dst; when
	// cap(dst) >= len(pairs) it performs no allocations.
	QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error)
	// MemoryBytes estimates the index's resident size.
	MemoryBytes() int64
	// Stats reports the shared observability surface.
	Stats() IndexStats
	// EncodeTo writes the index as a self-describing container (magic,
	// version, kind tag, sections, CRC32). Load reads it back. Indexes
	// without a serialization return ErrNotEncodable.
	EncodeTo(w io.Writer) error
}

// PointIndex is a DistanceIndex that also answers queries between
// arbitrary surface points (the A2A capability of Appendix C) and can
// project planar coordinates onto the surface.
type PointIndex interface {
	DistanceIndex
	// QueryPoints returns the ε-approximate geodesic distance between two
	// arbitrary surface points.
	QueryPoints(s, t terrain.SurfacePoint) (float64, error)
	// Project lifts planar coordinates onto the terrain surface; ok is
	// false when (x, y) lies outside the terrain.
	Project(x, y float64) (terrain.SurfacePoint, bool)
	// QueryXY projects both planar coordinate pairs and answers the
	// surface-point query — the serving layer's coordinate form.
	QueryXY(sx, sy, tx, ty float64) (float64, error)
}

// PathIndex is a DistanceIndex that can also report the surface path behind
// an id-addressed distance query (the serving layer's /v1/path): QueryPath
// returns a polyline of surface points from endpoint s to endpoint t whose
// summed segment length equals the returned distance exactly.
//
// For oracle-backed kinds the polyline is the ε-approximate *highway path*
// — the query points chained through their partition-tree centers and the
// matched pair's center-to-center geodesic — not the exact geodesic between
// s and t, so its length may exceed Query's answer by up to the oracle's ε
// slack. Paths that are resolved exactly (dynamic overflow rows, the A2A
// short-range regime) match Query to floating-point precision.
type PathIndex interface {
	DistanceIndex
	// QueryPath returns the surface path between two indexed endpoints and
	// its length. The polyline starts at endpoint s's surface point and
	// ends at t's; every vertex lies on a mesh face.
	QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error)
}

// PointPathIndex is a PathIndex that also reports paths between arbitrary
// surface points (implemented by the A2A oracle, mirroring PointIndex).
type PointPathIndex interface {
	PathIndex
	// QueryPathPoints returns the surface path between two arbitrary
	// surface points and its length.
	QueryPathPoints(s, t terrain.SurfacePoint) ([]terrain.SurfacePoint, float64, error)
	// QueryPathXY projects both planar coordinate pairs and answers the
	// surface-point path query — the serving layer's coordinate form.
	QueryPathXY(sx, sy, tx, ty float64) ([]terrain.SurfacePoint, float64, error)
}

// NearestFinder is implemented by indexes that can report the indexed
// endpoint nearest to a planar position (the serving layer's /v1/nearest).
type NearestFinder interface {
	// Nearest returns the id and surface point of the indexed endpoint
	// whose x-y projection is closest to (x, y), together with that planar
	// distance. Ties break toward the lower id.
	Nearest(x, y float64) (id int32, at terrain.SurfacePoint, planar float64, err error)
}

// MappedIndex is implemented by indexes that serve some of their state in
// place from a retained container image instead of decoded heap structures
// (the flat layout, and the inner oracle of a flat-body a2a). Loaders use it — via MappedBytesOf — to decide whether
// the backing memory must outlive the index.
type MappedIndex interface {
	// MappedBytes reports how many bytes of retained container image the
	// index reads in place.
	MappedBytes() int64
}

// Compile-time checks: every engine implements the shared interface, and
// the site oracle additionally serves arbitrary points.
var (
	_ DistanceIndex  = (*Oracle)(nil)
	_ DistanceIndex  = (*SiteOracle)(nil)
	_ DistanceIndex  = (*DynamicOracle)(nil)
	_ DistanceIndex  = (*ShardedIndex)(nil)
	_ PointIndex     = (*SiteOracle)(nil)
	_ PathIndex      = (*Oracle)(nil)
	_ PathIndex      = (*SiteOracle)(nil)
	_ PathIndex      = (*DynamicOracle)(nil)
	_ PathIndex      = (*ShardedIndex)(nil)
	_ PointPathIndex = (*SiteOracle)(nil)
	_ NearestFinder  = (*Oracle)(nil)
	_ NearestFinder  = (*SiteOracle)(nil)
	_ NearestFinder  = (*DynamicOracle)(nil)
	_ MatrixIndex    = (*Oracle)(nil)
	_ MatrixIndex    = (*SiteOracle)(nil)
	_ MatrixIndex    = (*DynamicOracle)(nil)
	_ MatrixIndex    = (*ShardedIndex)(nil)
	_ NearestKFinder = (*Oracle)(nil)
	_ NearestKFinder = (*SiteOracle)(nil)
	_ NearestKFinder = (*DynamicOracle)(nil)
	_ Reachability   = (*Oracle)(nil)
	_ Reachability   = (*SiteOracle)(nil)
	_ Reachability   = (*DynamicOracle)(nil)
	_ Reachability   = (*ShardedIndex)(nil)
	_ DistanceIndex  = (*FlatOracle)(nil)
	_ PathIndex      = (*FlatOracle)(nil)
	_ NearestFinder  = (*FlatOracle)(nil)
	_ MatrixIndex    = (*FlatOracle)(nil)
	_ NearestKFinder = (*FlatOracle)(nil)
	_ Reachability   = (*FlatOracle)(nil)
	_ MappedIndex    = (*FlatOracle)(nil)
	_ MappedIndex    = (*SiteOracle)(nil)
	_ MappedIndex    = (*ShardedIndex)(nil)
	_ PointIndex     = (*ShardedIndex)(nil)
	_ PointPathIndex = (*ShardedIndex)(nil)
	_ PointIndex     = lazyPointMember{}
	_ PointPathIndex = lazyPointMember{}
	_ NearestFinder  = (*lazyMember)(nil)
	_ NearestKFinder = (*lazyMember)(nil)
	_ MatrixIndex    = (*lazyMember)(nil)
	_ Reachability   = (*lazyMember)(nil)
	_ MappedIndex    = (*lazyMember)(nil)
)

// BatchViaQuery is the shared QueryBatch implementation for indexes whose
// batch surface is a loop over Query. It enforces the common contract:
// cap(dst) >= len(pairs) reuses dst, and the first invalid pair returns the
// filled prefix with the error. (Oracle keeps its own loop — binding a
// method value here would cost an allocation its zero-alloc batch contract
// forbids.)
func BatchViaQuery(query func(s, t int32) (float64, error), pairs [][2]int32, dst []float64) ([]float64, error) {
	if cap(dst) < len(pairs) {
		dst = make([]float64, len(pairs))
	}
	dst = dst[:len(pairs)]
	for i, p := range pairs {
		d, err := query(p[0], p[1])
		if err != nil {
			return dst[:i], fmt.Errorf("core: batch pair %d: %w", i, err)
		}
		dst[i] = d
	}
	return dst, nil
}

// nearestScan is the shared linear-scan Nearest implementation over a point
// table. It is deterministic: ties break toward the lower id.
func nearestScan(pts []terrain.SurfacePoint, skip func(int32) bool, x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	if len(pts) == 0 {
		return -1, terrain.SurfacePoint{}, 0, fmt.Errorf("core: index carries no point table")
	}
	best := int32(-1)
	bestD2 := 0.0
	for i, p := range pts {
		if skip != nil && skip(int32(i)) {
			continue
		}
		dx, dy := p.P.X-x, p.P.Y-y
		d2 := dx*dx + dy*dy
		if best < 0 || d2 < bestD2 {
			best, bestD2 = int32(i), d2
		}
	}
	if best < 0 {
		return -1, terrain.SurfacePoint{}, 0, fmt.Errorf("core: no live indexed points")
	}
	return best, pts[best], math.Sqrt(bestD2), nil
}
