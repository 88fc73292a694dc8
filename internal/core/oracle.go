package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// Options configures SE oracle construction.
type Options struct {
	// Epsilon is the error parameter ε > 0; answers are within a factor
	// (1±ε) of the geodesic distance.
	Epsilon float64
	// Selection is the point-selection strategy for the partition tree.
	Selection Selection
	// Seed drives every random choice, making construction deterministic.
	Seed int64
	// NaivePairDistances switches the construction to the paper's naive
	// method (§3.5): one SSAD per considered node pair instead of the
	// enhanced-edge index. Used by the SE-Naive baseline.
	NaivePairDistances bool
	// Workers bounds the number of goroutines used by the parallel
	// construction phases (the enhanced-edge SSAD fan-out and node-pair
	// distance resolution). 0 means runtime.GOMAXPROCS(0); 1 forces a fully
	// sequential build. Every worker count produces a bit-identical oracle
	// — the Seed-driven determinism contract holds regardless of
	// parallelism. When Workers > 1 the Engine must be safe for concurrent
	// DistancesTo calls (geodesic.Exact and steiner.Engine both are).
	Workers int
}

// BuildStats reports what construction did; the evaluation harness records
// it next to the timings.
type BuildStats struct {
	TreeNodes         int           // original partition tree size (O(nh))
	CompressedNodes   int           // compressed tree size (O(n), Lemma 9)
	Height            int           // h
	EnhancedEdges     int           // enhanced-edge index entries
	Pairs             int           // node pair set size (O(nh/ε^2β), Thm 2)
	PairsConsidered   int           // pairs examined during generation
	SSADCalls         int           // geodesic SSAD invocations
	ResolverFallbacks int           // enhanced-edge misses (expected 0)
	TreeTime          time.Duration // phase timings
	EdgeTime          time.Duration
	PairTime          time.Duration
	HashTime          time.Duration
}

// Oracle is the SE distance oracle (§3): a compressed partition tree plus a
// perfect-hashed well-separated node-pair set. It answers ε-approximate
// POI-to-POI geodesic distance queries in O(h) time and occupies O(nh/ε^2β)
// space, independent of the terrain size N.
//
// The oracle keeps the logical content the se container serializes — the
// tree and the pair keys and distances — and answers every query through
// flat, its query engine: the hot slabs of the flat layout, laid out once by
// Build or the decoder, with the point table and mesh attached in memory.
// A built (or decoded) Oracle is immutable, so one Oracle may be shared
// freely across goroutines without external locking. (The geodesic-segment
// cache that path queries fill lives on the *FlatOracle engine and is the
// one internally synchronized exception.)
type Oracle struct {
	tree  *ctree
	keys  []uint64 // pair keys, aligned with dist
	dist  []float64
	stats BuildStats
	flat  *FlatOracle // also holds ε and the POI count
}

// Build constructs an SE oracle over the POIs of a terrain using eng as the
// SSAD primitive.
func Build(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options) (*Oracle, error) {
	return build(eng, pois, opt, newBudget(opt.Workers))
}

// build is Build with its parallel phases drawing on b, which a multi-member
// build shares across members; opt.Workers is not read.
func build(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options, b *budget) (*Oracle, error) {
	if opt.Epsilon <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %g", opt.Epsilon)
	}
	if len(pois) == 0 {
		return nil, fmt.Errorf("core: no POIs")
	}
	var stats BuildStats
	var ctr buildCounters

	t0 := time.Now()
	counting := &countingEngine{Engine: eng, calls: &ctr.ssadCalls}
	t, err := buildPartitionTree(counting, pois, opt.Selection, opt.Seed)
	if err != nil {
		return nil, err
	}
	ct := compress(t)
	stats.TreeNodes = len(t.nodes)
	stats.CompressedNodes = ct.numNodes()
	stats.Height = int(t.height)
	stats.TreeTime = time.Since(t0)

	t1 := time.Now()
	var res *pairResolver
	if opt.NaivePairDistances {
		res = newPairResolver(counting, t, ct, pois, map[uint64]float64{}, &ctr, b)
	} else {
		edges := enhancedEdges(counting, t, pois, opt.Epsilon, b)
		stats.EnhancedEdges = len(edges)
		res = newPairResolver(counting, t, ct, pois, edges, &ctr, b)
	}
	stats.EdgeTime = time.Since(t1)

	t2 := time.Now()
	pairs, err := generatePairs(ct, res, opt.Epsilon, &ctr)
	if err != nil {
		return nil, err
	}
	stats.Pairs = len(pairs)
	stats.SSADCalls = int(ctr.ssadCalls.Load())
	stats.PairsConsidered = int(ctr.pairsConsidered.Load())
	stats.ResolverFallbacks = int(ctr.resolverFallbacks.Load())
	if opt.NaivePairDistances {
		// Every pair resolution fell back to a direct SSAD by design; do
		// not report them as anomalies.
		stats.ResolverFallbacks = 0
	}
	stats.PairTime = time.Since(t2)

	t3 := time.Now()
	keys := make([]uint64, len(pairs))
	dist := make([]float64, len(pairs))
	for i, p := range pairs {
		keys[i] = packPair(p.a, p.b)
		dist[i] = p.dist
	}
	o, err := newOracle(opt.Epsilon, ct, keys, dist, len(pois))
	if err != nil {
		return nil, err
	}
	o.stats = stats
	o.stats.HashTime = time.Since(t3)
	o.flat.pts = append([]terrain.SurfacePoint(nil), pois...)
	// Retain the path-reporting surface when the engine exposes it: the
	// mesh is serialized with the oracle (QueryPath survives a round trip)
	// and the engine itself is reused so hop geodesics share its pooled
	// scratch.
	if pe, ok := eng.(geodesic.PathEngine); ok {
		o.flat.peng = pe
	}
	if me, ok := eng.(interface{ Mesh() *terrain.Mesh }); ok {
		o.flat.mesh = me.Mesh()
	}
	return o, nil
}

// newOracle wraps an oracle's logical content and lays out its query
// engine. The point table and mesh start detached.
func newOracle(eps float64, ct *ctree, keys []uint64, dist []float64, npoi int) (*Oracle, error) {
	f, err := newFlatEngine(eps, ct, keys, dist, npoi)
	if err != nil {
		return nil, err
	}
	return &Oracle{tree: ct, keys: keys, dist: dist, flat: f}, nil
}

// countingEngine counts SSAD invocations for BuildStats. The counter is
// atomic because the parallel construction phases invoke the engine from
// multiple goroutines at once.
type countingEngine struct {
	geodesic.Engine
	calls *atomic.Int64
}

func (c *countingEngine) DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop geodesic.Stop) []float64 {
	c.calls.Add(1)
	return c.Engine.DistancesTo(src, targets, stop)
}

// Epsilon returns the oracle's error parameter.
func (o *Oracle) Epsilon() float64 { return o.flat.eps }

// NumPOIs returns the number of POIs the oracle indexes.
func (o *Oracle) NumPOIs() int { return o.flat.npoi }

// Height returns the partition-tree height h (the query cost driver).
func (o *Oracle) Height() int { return int(o.tree.height) }

// NumPairs returns the size of the node pair set.
func (o *Oracle) NumPairs() int { return len(o.dist) }

// BuildStats returns the construction statistics. (Zero for oracles loaded
// from a serialized stream: construction happened in another process.)
func (o *Oracle) BuildStats() BuildStats { return o.stats }

// Stats reports the shared DistanceIndex observability surface.
func (o *Oracle) Stats() IndexStats {
	return IndexStats{
		Kind:        KindSE,
		Epsilon:     o.flat.eps,
		Points:      o.flat.npoi,
		Height:      int(o.tree.height),
		Pairs:       len(o.dist),
		MemoryBytes: o.MemoryBytes(),
		Build:       o.stats,
	}
}

// Points returns the indexed POI point table, or nil when the oracle was
// loaded from a container that carried none. The slice aliases
// oracle-owned memory and must be treated as read-only.
func (o *Oracle) Points() []terrain.SurfacePoint { return o.flat.pts }

// Mesh returns the terrain the oracle retains for path queries, or nil for
// distance-only oracles (containers without a mesh, mesh-less engines).
func (o *Oracle) Mesh() *terrain.Mesh { return o.flat.mesh }

// Query returns the ε-approximate geodesic distance between POIs s and t
// (§3.4, O(h)). A successful query performs no heap allocations.
//
//sealint:hotpath
func (o *Oracle) Query(s, t int32) (float64, error) { return o.flat.Query(s, t) }

// QueryBatch answers pairs[i] = (s, t) into dst[i]; see
// FlatOracle.QueryBatch for the allocation and error contract.
//
//sealint:hotpath
func (o *Oracle) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return o.flat.QueryBatch(pairs, dst)
}

// QueryMatrix fills dst with the row-major sources×targets distance matrix.
// Part of the MatrixIndex interface.
func (o *Oracle) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return o.flat.QueryMatrix(sources, targets, dst)
}

// QueryNaive answers through the O(h²) naive method of §3.4 — the SE-Naive
// baseline.
//
//sealint:hotpath
func (o *Oracle) QueryNaive(s, t int32) (float64, error) { return o.flat.QueryNaive(s, t) }

// QueryPath returns the ε-approximate highway path between POIs s and t.
// Part of the PathIndex interface.
func (o *Oracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	return o.flat.QueryPath(s, t)
}

// Nearest returns the indexed POI whose x-y projection is closest to
// (x, y). It errors when the oracle carries no point table.
func (o *Oracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	return o.flat.Nearest(x, y)
}

// NearestK returns up to k POIs ordered by planar distance to (x, y), ties
// toward the lower id. Part of the NearestKFinder interface.
func (o *Oracle) NearestK(x, y float64, k int) ([]Neighbor, error) { return o.flat.NearestK(x, y, k) }

// Reachable returns every POI within surface distance d of POI src, in
// ascending id order. Part of the Reachability interface.
func (o *Oracle) Reachable(src int32, d float64) ([]Reached, error) { return o.flat.Reachable(src, d) }

// MemoryBytes estimates the oracle's resident size: the compressed tree, the
// node-pair keys and distances, the point table and the engine's slabs.
// This is the "oracle size" measurement of the evaluation.
func (o *Oracle) MemoryBytes() int64 {
	var b int64
	b += int64(len(o.tree.nodes)) * 28 // center, layer, parent, radius, children header amortized
	for _, n := range o.tree.nodes {
		b += int64(len(n.children)) * 4
	}
	b += int64(len(o.tree.leaf)) * 4
	b += int64(len(o.keys)) * 8
	b += int64(len(o.dist)) * 8
	f := o.flat
	b += int64(len(f.pts)) * 32 // point table: Face, Vert int32 + 3 float64 coords
	b += int64(len(f.leaf) + len(f.paths) + len(f.nodes) + len(f.disp) + len(f.slots))
	return b
}

// CheckInvariants validates the oracle's structural properties: the
// separation/covering/distance properties of the tree and the
// unique-node-pair-match property (Theorem 1) for sampled POI pairs. It is
// used by the test suite and by `sebuild -check`.
func (o *Oracle) CheckInvariants() error {
	c := o.tree
	// Tree shape.
	for id, n := range c.nodes {
		if n.parent >= 0 {
			p := c.nodes[n.parent]
			if p.layer >= n.layer {
				return fmt.Errorf("node %d layer %d has parent at layer %d", id, n.layer, p.layer)
			}
		}
		for _, ch := range n.children {
			if c.nodes[ch].parent != int32(id) {
				return fmt.Errorf("child %d of %d has parent %d", ch, id, c.nodes[ch].parent)
			}
		}
		if n.layer == c.height && n.radius != 0 {
			return fmt.Errorf("leaf %d has non-zero radius", id)
		}
		if len(n.children) == 1 && int32(id) != c.root {
			return fmt.Errorf("non-root node %d has exactly one child (compression failed)", id)
		}
	}
	// Well-separation of every stored pair.
	sep := 2/o.flat.eps + 2
	for i, key := range o.keys {
		a := int32(key >> 32)
		b := int32(key & 0xffffffff)
		m := math.Max(c.enlargedRadius(a), c.enlargedRadius(b))
		if o.dist[i] < sep*m-1e-9*(1+o.dist[i]) {
			return fmt.Errorf("pair (%d,%d) not well-separated: d=%g, need %g", a, b, o.dist[i], sep*m)
		}
	}
	// Unique node-pair match (Theorem 1) for a grid of POI pairs.
	return o.flat.CheckInvariants()
}
