package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seoracle/internal/geodesic"
	"seoracle/internal/perfecthash"
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
// A built (or decoded) Oracle is immutable: Query, QueryNaive,
// CheckInvariants, Encode and every accessor only read its state, so one
// Oracle may be shared freely across goroutines without external locking.
// (QueryPath's geodesic-segment cache is the one internally synchronized
// exception; see path.go.)
type Oracle struct {
	eps    float64
	tree   *ctree
	hash   *perfecthash.Table
	keys   []uint64 // pair keys, aligned with dist
	dist   []float64
	npoi   int
	stats  BuildStats
	layerN int     // h+1, the number of layers
	paths  []int32 // flat path slab: POI p's A_s row at [p*layerN, (p+1)*layerN)
	// pts is the indexed POI point table. Build always records it (it backs
	// Nearest and is serialized as the container's point section); an se
	// container without that section loads with none.
	pts []terrain.SurfacePoint

	// mesh is the terrain the oracle was built on, retained (and serialized
	// as the container's mesh section) so QueryPath can stitch geodesic
	// segments after a load. Nil when the construction engine exposed no
	// mesh or the oracle came from a pre-path stream; distance queries never
	// touch it. peng is the path-capable geodesic engine — the construction
	// engine when it reported paths, else built lazily from mesh under
	// pathMu (path.go).
	mesh     *terrain.Mesh
	peng     geodesic.PathEngine
	pathMu   sync.Mutex
	segCache map[uint64]pathSeg // canonical POI pair -> geodesic hop segment
}

// Build constructs an SE oracle over the POIs of a terrain using eng as the
// SSAD primitive.
func Build(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options) (*Oracle, error) {
	if opt.Epsilon <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %g", opt.Epsilon)
	}
	if len(pois) == 0 {
		return nil, fmt.Errorf("core: no POIs")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
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
		res = newPairResolver(counting, t, ct, pois, map[uint64]float64{}, &ctr, workers)
	} else {
		edges := enhancedEdges(counting, t, pois, opt.Epsilon, workers)
		stats.EnhancedEdges = len(edges)
		res = newPairResolver(counting, t, ct, pois, edges, &ctr, workers)
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
	hash, err := perfecthash.Build(keys, opt.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: hashing node pairs: %w", err)
	}
	stats.HashTime = time.Since(t3)

	o := &Oracle{
		eps:    opt.Epsilon,
		tree:   ct,
		hash:   hash,
		keys:   keys,
		dist:   dist,
		npoi:   len(pois),
		stats:  stats,
		layerN: int(ct.height) + 1,
		pts:    append([]terrain.SurfacePoint(nil), pois...),
	}
	o.buildPathSlab()
	// Retain the path-reporting surface when the engine exposes it: the
	// mesh is serialized with the oracle (QueryPath survives a round trip)
	// and the engine itself is reused so hop geodesics share its pooled
	// scratch.
	if pe, ok := eng.(geodesic.PathEngine); ok {
		o.peng = pe
	}
	if me, ok := eng.(interface{ Mesh() *terrain.Mesh }); ok {
		o.mesh = me.Mesh()
	}
	return o, nil
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
func (o *Oracle) Epsilon() float64 { return o.eps }

// NumPOIs returns the number of POIs the oracle indexes.
func (o *Oracle) NumPOIs() int { return o.npoi }

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
		Epsilon:     o.eps,
		Points:      o.npoi,
		Height:      int(o.tree.height),
		Pairs:       len(o.dist),
		MemoryBytes: o.MemoryBytes(),
		Build:       o.stats,
	}
}

// Points returns the indexed POI point table, or nil when the oracle was
// loaded from a container that carried none. The slice aliases
// oracle-owned memory and must be treated as read-only.
func (o *Oracle) Points() []terrain.SurfacePoint { return o.pts }

// Nearest returns the indexed POI whose x-y projection is closest to
// (x, y). It errors when the oracle carries no point table.
func (o *Oracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	return nearestScan(o.pts, nil, x, y)
}

// MemoryBytes estimates the oracle's resident size: the compressed tree, the
// node-pair keys and distances, and the perfect-hash index. This is the
// "oracle size" measurement of the evaluation.
func (o *Oracle) MemoryBytes() int64 {
	var b int64
	b += int64(len(o.tree.nodes)) * 28 // center, layer, parent, radius, children header amortized
	for _, n := range o.tree.nodes {
		b += int64(len(n.children)) * 4
	}
	b += int64(len(o.tree.leaf)) * 4
	b += int64(len(o.keys)) * 8
	b += int64(len(o.dist)) * 8
	b += int64(len(o.paths)) * 4
	b += int64(len(o.pts)) * 32 // point table: Face, Vert int32 + 3 float64 coords
	b += o.hash.MemoryBytes()
	return b
}

// lookup returns the distance associated with the node pair (a, b), if it is
// in the node pair set. It fuses the hash probe with the distance fetch
// through the single-return perfecthash.Index, so the hot path is two table
// loads plus one distance load with no tuple-return shuffling.
//
//sealint:hotpath
func (o *Oracle) lookup(a, b int32) (float64, bool) {
	idx := o.hash.Index(packPair(a, b))
	if idx < 0 {
		return 0, false
	}
	return o.dist[idx], true
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
	sep := 2/o.eps + 2
	for i, key := range o.keys {
		a := int32(key >> 32)
		b := int32(key & 0xffffffff)
		m := math.Max(c.enlargedRadius(a), c.enlargedRadius(b))
		if o.dist[i] < sep*m-1e-9*(1+o.dist[i]) {
			return fmt.Errorf("pair (%d,%d) not well-separated: d=%g, need %g", a, b, o.dist[i], sep*m)
		}
	}
	// Unique node-pair match (Theorem 1) for a grid of POI pairs.
	step := o.npoi/17 + 1
	for s := 0; s < o.npoi; s += step {
		for t := 0; t < o.npoi; t += step {
			if cnt := o.countMatches(int32(s), int32(t)); cnt != 1 {
				return fmt.Errorf("POIs (%d,%d) matched by %d node pairs, want exactly 1", s, t, cnt)
			}
		}
	}
	return nil
}

// countMatches counts node pairs containing (s, t) — Theorem 1 says exactly
// one exists.
func (o *Oracle) countMatches(s, t int32) int {
	as := o.pathOf(s)
	at := o.pathOf(t)
	cnt := 0
	for _, a := range as {
		for _, b := range at {
			if a < 0 || b < 0 {
				continue
			}
			if _, ok := o.lookup(a, b); ok {
				cnt++
			}
		}
	}
	return cnt
}
