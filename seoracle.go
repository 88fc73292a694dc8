// Package seoracle is a Go implementation of the Space-Efficient distance
// oracle (SE) for geodesic shortest-distance queries on terrain surfaces,
// reproducing "Distance Oracle on Terrain Surface" (Wei, Wong, Long, Mount;
// SIGMOD 2017).
//
// The library answers ε-approximate geodesic distance queries between
// points-of-interest (POIs) on a triangulated terrain in O(h) time (h is the
// POI partition-tree height, < 30 in practice) from an index whose size is
// linear in the number of POIs — independent of the terrain size. It also
// ships the substrates the paper builds on: an exact geodesic
// single-source-all-destinations (SSAD) engine in the continuous-Dijkstra
// (MMP) paradigm, Steiner-graph approximations, an FKS perfect hash and a
// B+-tree, plus the baselines the paper compares against.
//
// Basic usage:
//
//	mesh, _ := seoracle.GenerateFractalTerrain(seoracle.FractalSpec{
//		NX: 65, NY: 65, CellDX: 10, Amp: 120, Seed: 1,
//	})
//	pois, _ := seoracle.SampleUniformPOIs(mesh, 200, 2)
//	oracle, _ := seoracle.Build(mesh, pois, seoracle.Options{Epsilon: 0.1})
//	d, _ := oracle.Query(3, 17) // ε-approximate geodesic distance
//
// Construction parallelizes its SSAD fan-out across Options.Workers
// goroutines (default: all CPUs) and is bit-identical for every worker
// count; a built Oracle is immutable and may be queried concurrently from
// any number of goroutines.
//
// For arbitrary (non-POI) query points, build an A2A oracle with
// BuildA2A. For exact one-off distances, use ExactDistance.
//
// Every engine — the SE Oracle, the A2A oracle, the dynamic oracle —
// implements the DistanceIndex interface, serializes itself with EncodeTo
// into a self-describing container file, and is restored (as the right
// concrete type) with Load. cmd/seserve serves any such file over HTTP.
//
// Beyond scalar distances, every engine answers three bulk workloads:
// many-to-many distance matrices (MatrixIndex), k-nearest-endpoint
// queries (NearestKFinder) and reachability isochrones (Reachability,
// with PlanarHull for contours). See docs/API.md for the HTTP surface and
// docs/ARCHITECTURE.md for the layer map.
package seoracle

import (
	"io"
	"os"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/geom"
	"seoracle/internal/terrain"
)

// Terrain is a triangulated terrain surface (a TIN).
type Terrain = terrain.Mesh

// SurfacePoint is a point on a terrain surface.
type SurfacePoint = terrain.SurfacePoint

// Stats summarizes a terrain's structural and metric properties.
type Stats = terrain.Stats

// Oracle is the SE distance oracle over a fixed POI set.
type Oracle = core.Oracle

// A2AOracle answers distance queries between arbitrary surface points
// (paper Appendix C), including the n > N regime (Appendix D). Arbitrary
// points go through QueryPoints; Query answers site-id distances.
type A2AOracle = core.SiteOracle

// DistanceIndex is the shared interface over every query engine: Query /
// QueryBatch by endpoint id, MemoryBytes, Stats, and container
// serialization via EncodeTo.
type DistanceIndex = core.DistanceIndex

// PointIndex is a DistanceIndex that also answers arbitrary-surface-point
// queries (implemented by A2AOracle).
type PointIndex = core.PointIndex

// PathIndex is a DistanceIndex that also reports the surface path behind a
// query (QueryPath) as a polyline of surface points whose summed length
// equals the returned distance. Implemented by every engine: the SE and
// dynamic oracles report the ε-approximate highway path, the A2A oracle
// additionally serves arbitrary points (PointPathIndex), and a sharded
// index routes to its member.
type PathIndex = core.PathIndex

// PointPathIndex is a PathIndex that also reports paths between arbitrary
// surface points and planar coordinates (implemented by A2AOracle).
type PointPathIndex = core.PointPathIndex

// MatrixIndex is a DistanceIndex that answers many-to-many distance
// matrices in one call: QueryMatrix fills a row-major sources×targets
// matrix, computing rows in parallel. Implemented by every engine;
// cmd/seserve exposes it as /v1/matrix.
type MatrixIndex = core.MatrixIndex

// NearestFinder is a DistanceIndex that answers planar nearest-endpoint
// queries (ties break toward the lower id).
type NearestFinder = core.NearestFinder

// NearestKFinder is a NearestFinder that returns the k nearest indexed
// endpoints to a planar point, in ascending (distance, id) order. The
// ordering is exact and deterministic — NearestK(x, y, 1) always agrees
// with Nearest(x, y) — and survives an EncodeTo/Load round trip.
type NearestKFinder = core.NearestKFinder

// Neighbor is one answer of NearestKFinder.NearestK: an endpoint id, its
// surface location, and its planar distance from the query point.
type Neighbor = core.Neighbor

// MemberNeighbor is one answer of ShardedIndex.NearestKAcross: a Neighbor
// tagged with the member that owns its (member-local) id.
type MemberNeighbor = core.MemberNeighbor

// Reachability is a DistanceIndex that answers isochrone queries: Reachable
// lists every indexed endpoint within a surface-distance budget of a
// source, in ascending id order. Membership agrees exactly with Query —
// an endpoint is included iff Query(src, id) ≤ d.
type Reachability = core.Reachability

// Reached is one answer of Reachability.Reachable: an endpoint id, its
// surface location, and its surface distance from the source.
type Reached = core.Reached

// PlanarHull returns the convex hull of the points' planar (x, y)
// projections in counter-clockwise order, starting from the
// lexicographically smallest point. Collinear boundary points are dropped;
// degenerate inputs yield the distinct endpoints (2), the single distinct
// point (1), or nil. Useful for drawing an isochrone contour around
// Reachable's answer.
func PlanarHull(pts []SurfacePoint) []SurfacePoint { return core.PlanarHull(pts) }

// IndexStats is the shared observability surface reported by
// DistanceIndex.Stats.
type IndexStats = core.IndexStats

// Kind tags the concrete engine behind a serialized index container.
type Kind = core.Kind

// Container kind tags.
const (
	KindSE      = core.KindSE
	KindA2A     = core.KindA2A
	KindDynamic = core.KindDynamic
	KindMulti   = core.KindMulti
)

// Options configures oracle construction.
type Options = core.Options

// BuildStats reports construction statistics.
type BuildStats = core.BuildStats

// FractalSpec configures the synthetic terrain generator.
type FractalSpec = gen.FractalSpec

// Selection strategies for the partition tree (§3.2, Implementation
// Detail 1).
const (
	SelectRandom = core.SelectRandom
	SelectGreedy = core.SelectGreedy
)

// Vec3 is a 3-D point (x, y, z).
type Vec3 = geom.Vec3

// NewTerrain builds a terrain from vertices and triangles, validating
// manifoldness.
func NewTerrain(verts []Vec3, faces [][3]int32) (*Terrain, error) {
	return terrain.New(verts, faces)
}

// GenerateFractalTerrain synthesizes a deterministic fractal terrain.
func GenerateFractalTerrain(spec FractalSpec) (*Terrain, error) { return gen.Fractal(spec) }

// GenerateGridTerrain builds a height-field terrain from a row-major height
// grid.
func GenerateGridTerrain(nx, ny int, dx, dy float64, heights []float64) (*Terrain, error) {
	return terrain.NewGrid(nx, ny, dx, dy, heights)
}

// ReadTerrainOFF parses an OFF mesh.
func ReadTerrainOFF(r io.Reader) (*Terrain, error) { return terrain.ReadOFF(r) }

// WriteTerrainOFF writes a terrain as OFF.
func WriteTerrainOFF(w io.Writer, t *Terrain) error { return terrain.WriteOFF(w, t) }

// SampleUniformPOIs samples n POIs uniformly over the terrain extent.
func SampleUniformPOIs(t *Terrain, n int, seed int64) ([]SurfacePoint, error) {
	pois, err := gen.UniformPOIs(t, n, seed)
	if err != nil {
		return nil, err
	}
	return gen.Dedup(pois, 1e-9), nil
}

// VertexPOIs returns every terrain vertex as a POI (the V2V setting).
func VertexPOIs(t *Terrain) []SurfacePoint { return gen.VertexPOIs(t) }

// Build constructs an SE oracle over the POIs using the exact geodesic
// engine. Construction runs its geodesic fan-out on opt.Workers goroutines
// (0 means one per CPU); the resulting oracle is identical for every
// worker count and safe for concurrent Query use.
func Build(t *Terrain, pois []SurfacePoint, opt Options) (*Oracle, error) {
	return core.Build(geodesic.NewExact(t), pois, opt)
}

// BuildA2A constructs the arbitrary-point oracle of Appendix C.
func BuildA2A(t *Terrain, opt Options) (*A2AOracle, error) {
	return core.BuildSiteOracle(geodesic.NewExact(t), t, core.SiteOptions{Options: opt})
}

// DynamicOracle is an SE oracle supporting POI insertion and deletion (the
// paper's stated future work). Queries touching freshly inserted POIs are
// exact; the base index is rebuilt amortized as churn accumulates.
type DynamicOracle = core.DynamicOracle

// BuildDynamic constructs a dynamic SE oracle over the initial POI set.
func BuildDynamic(t *Terrain, pois []SurfacePoint, opt Options) (*DynamicOracle, error) {
	return core.NewDynamicOracle(geodesic.NewExact(t), t, pois, opt)
}

// ShardedIndex is a multi-index container: several named member indexes,
// each with a planar bounding box, served as one unit (and one "multi"-kind
// container file). cmd/seserve routes requests across its members by name
// or by locating coordinates in a member bbox.
type ShardedIndex = core.ShardedIndex

// ShardMember is one named member of a ShardedIndex.
type ShardMember = core.ShardMember

// BuildSharded tiles the terrain's planar bounding box into a shards-tile
// grid and builds one SE oracle per non-empty tile (in parallel across
// tiles; byte-identical output for any opt.Workers). Member ids are local
// to each member.
func BuildSharded(t *Terrain, pois []SurfacePoint, shards int, opt Options) (*ShardedIndex, error) {
	return core.BuildShardedSE(geodesic.NewExact(t), t, pois, shards, opt)
}

// LODOptions configures BuildShardedLOD beyond the per-member Options:
// the total level count (including the fine grid at level 0) and the
// boundary-portal density on shared tile edges.
type LODOptions = core.LODOptions

// DefaultPortalsPerEdge is the boundary-portal density used when
// LODOptions.PortalsPerEdge is zero.
const DefaultPortalsPerEdge = core.DefaultPortalsPerEdge

// PortalLink is one boundary portal shared by two adjacent fine tiles of a
// hierarchical sharded index: the same surface point indexed by both
// members, the seam cross-tile queries stitch through.
type PortalLink = core.PortalLink

// CrossMemberError reports a query whose endpoints land in different
// members of a multi index that has no portal or coarse-level route
// between them. It carries both member names; unwrap with errors.As.
type CrossMemberError = core.CrossMemberError

// ErrMemberFault marks a lazily loaded member whose body failed to decode
// on first touch. Queries touching the member keep returning it (sticky);
// test with errors.Is.
var ErrMemberFault = core.ErrMemberFault

// TileStats is the hierarchy / resident-set observability block of a
// sharded index (ShardedIndex.TileStats): member and level counts, portal
// count, resident-set size against its memory budget, fault/eviction
// churn, and the cross-tile routing split.
type TileStats = core.TileStats

// ShardedBuildSummary reports what WriteSharded streamed: fine and coarse
// member counts, portal links, and the global id space size.
type ShardedBuildSummary = core.ShardedBuildSummary

// BuildShardedLOD is BuildSharded with a level-of-detail hierarchy: K-1
// coarse A2A members above the fine tile grid and boundary portals on every
// shared tile edge, so queries between tiles answer through portal
// stitching (short range) or a coarse member (long range) instead of
// failing. The result carries a global id space — the fine members' POIs
// concatenated in manifest order — addressable directly via Query.
func BuildShardedLOD(t *Terrain, pois []SurfacePoint, shards int, opt LODOptions) (*ShardedIndex, error) {
	return core.BuildShardedLOD(geodesic.NewExact(t), t, pois, shards, opt)
}

// WriteSharded builds the same container BuildShardedLOD + EncodeTo would
// produce, but streams each member to w as it is built and drops it before
// the next starts, so peak memory is one tile rather than the whole
// container. The output bytes are identical to the resident path. flat
// selects the zero-parse flat member layout.
func WriteSharded(w io.Writer, t *Terrain, pois []SurfacePoint, shards int, opt LODOptions, flat bool) (ShardedBuildSummary, error) {
	return core.WriteSharded(w, geodesic.NewExact(t), t, pois, shards, opt, flat)
}

// Load reads any serialized index container (written with EncodeTo) and
// returns the concrete engine behind the DistanceIndex interface — an
// *Oracle, *A2AOracle or *DynamicOracle according to the container's kind
// tag. The container's CRC footer must match.
func Load(r io.Reader) (DistanceIndex, error) {
	idx, _, err := core.Load(r, core.LoadOptions{})
	return idx, err
}

// LoadFile opens path and Loads the index it contains.
func LoadFile(path string) (DistanceIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// ExactDistance computes the exact geodesic distance between two surface
// points with the window-propagation SSAD engine. For repeated queries,
// build an Oracle instead.
func ExactDistance(t *Terrain, s, d SurfacePoint) float64 {
	eng := geodesic.NewExact(t)
	return eng.DistancesTo(s, []SurfacePoint{d}, geodesic.Stop{CoverTargets: true})[0]
}

// ExactDistances computes exact geodesic distances from one source to many
// targets with a single SSAD run.
func ExactDistances(t *Terrain, s SurfacePoint, targets []SurfacePoint) []float64 {
	eng := geodesic.NewExact(t)
	return eng.DistancesTo(s, targets, geodesic.Stop{CoverTargets: true})
}

// ExactPath computes the exact geodesic path between two surface points:
// a polyline from s to d whose summed segment length (also returned)
// matches ExactDistance for the same pair. For repeated path queries, build
// an Oracle and use QueryPath.
func ExactPath(t *Terrain, s, d SurfacePoint) ([]SurfacePoint, float64, error) {
	return geodesic.NewExact(t).PathTo(s, d)
}
