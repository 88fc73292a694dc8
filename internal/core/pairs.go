package core

import (
	"fmt"
	"math"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// packPair packs two non-negative node ids into one hash key.
func packPair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// enhancedEdges computes, for every node O of the original partition tree,
// the geodesic distances to all same-layer nodes O' with
// dg(cO, cO') <= l*rO, l = 8/ε + 10 (§3.5, Step 2). One SSAD per distinct
// center on the layers below the root. The result maps
// packPair(origID, origID') -> distance, in both directions.
//
// A center stays a center on every deeper layer, so one SSAD serves all of
// its nodes: it is bounded by the center's largest reach, that of its
// shallowest layer (rᵢ = r0/2ⁱ), and targets every POI. A target's distance
// within a radius does not depend on a larger radius or on the other
// targets, so each node reads its center's row filtered by its own reach
// and gets the bits a per-node SSAD would.
//
// The SSADs fan out across the build's worker budget. Each worker trims
// its dense row before taking the next center, keeping POI p at distance d
// only if some layer's merge can read it: d within the reach of the
// shallowest layer on which p and the center are both centers. So the
// resident rows hold no more entries than the map they feed. The merge
// runs on the calling goroutine, layer by layer and in node-id order within
// a layer — the same insertion (and overwrite) order as a per-node pass, so
// the index is identical for every worker count.
func enhancedEdges(eng geodesic.Engine, t *ptree, pois []terrain.SurfacePoint, eps float64, b *budget) map[uint64]float64 {
	l := 8/eps + 10
	edges := make(map[uint64]float64)
	// The root's enhanced edge is its self-loop; still record it so pair
	// generation can start from (root, root).
	for _, id := range t.layers[0] {
		edges[packPair(id, id)] = 0
	}
	// reach[c] is POI c's largest reach over the layers >= 1 it centers; 0
	// when it centers none (only in a one-POI tree). centers lists them in
	// order of first layer, so the widest SSADs are handed out first.
	reach := make([]float64, len(pois))
	var centers []int32
	for _, ids := range t.layers[1:] {
		for _, id := range ids {
			nd := t.nodes[id]
			if reach[nd.center] == 0 {
				centers = append(centers, nd.center)
			}
			reach[nd.center] = math.Max(reach[nd.center], l*nd.radius*(1+1e-9))
		}
	}
	rows := make([][]rowEntry, len(pois))
	b.parfor(len(centers), func(k int) {
		c := centers[k]
		d := eng.DistancesTo(pois[c], pois, geodesic.Stop{Radius: reach[c]})
		var row []rowEntry
		for p, x := range d {
			if x <= math.Min(reach[c], reach[p]) {
				row = append(row, rowEntry{poi: int32(p), d: x})
			}
		}
		rows[c] = row
	})
	node := make([]int32, len(pois)) // POI -> its node on the current layer, or -1
	for i := range node {
		node[i] = -1
	}
	for _, ids := range t.layers[1:] {
		for _, id := range ids {
			node[t.nodes[id].center] = id
		}
		for _, id := range ids {
			r := l * t.nodes[id].radius * (1 + 1e-9)
			for _, e := range rows[t.nodes[id].center] {
				if other := node[e.poi]; other >= 0 && e.d <= r {
					edges[packPair(id, other)] = e.d
					edges[packPair(other, id)] = e.d
				}
			}
		}
		for _, id := range ids {
			node[t.nodes[id].center] = -1
		}
	}
	return edges
}

// rowEntry is one kept entry of a center's enhanced-edge SSAD row: a POI
// and its geodesic distance from the center.
type rowEntry struct {
	poi int32
	d   float64
}

// pairResolver finds dg(cO, cO') for compressed node pairs through the
// enhanced-edge index: walk the two original leaf-to-root paths in lockstep
// while their centers still match the queried centers, and return the first
// enhanced edge found (Lemma 4 guarantees one exists).
//
// resolve is pure with respect to the resolver's shared state (it only
// reads the tree and the edge index, and the engine is concurrency-safe),
// so prefetch may fan resolutions out across the worker budget. The cache
// is written exclusively on the generatePairs goroutine.
type pairResolver struct {
	t      *ptree
	c      *ctree
	pois   []terrain.SurfacePoint
	edges  map[uint64]float64
	eng    geodesic.Engine
	ctr    *buildCounters
	cache  map[uint64]float64 // center-pair distance cache
	budget *budget
	// prefetching is enabled only for the naive construction (empty edge
	// index), where every resolution is a full SSAD worth batching. With
	// the enhanced-edge index, resolve is a cheap map walk (Lemma 4 says
	// fallbacks are not expected), so scanning the pending stack on every
	// cache miss would cost more than it parallelizes.
	prefetching bool
}

func newPairResolver(eng geodesic.Engine, t *ptree, c *ctree, pois []terrain.SurfacePoint, edges map[uint64]float64, ctr *buildCounters, b *budget) *pairResolver {
	return &pairResolver{
		t: t, c: c, pois: pois, edges: edges, eng: eng, ctr: ctr,
		cache:       make(map[uint64]float64),
		budget:      b,
		prefetching: b.parallel() && len(edges) == 0,
	}
}

// distance returns dg between the centers of compressed nodes a and b.
func (pr *pairResolver) distance(a, b int32) float64 {
	ca := pr.c.nodes[a].center
	cb := pr.c.nodes[b].center
	if ca == cb {
		return 0
	}
	key := packPair(ca, cb)
	if d, ok := pr.cache[key]; ok {
		return d
	}
	d := pr.resolve(ca, cb)
	pr.cache[key] = d
	pr.cache[packPair(cb, ca)] = d
	return d
}

// cached reports whether distance(a, b) would hit the cache (or the
// zero-distance fast path).
func (pr *pairResolver) cached(a, b int32) bool {
	ca := pr.c.nodes[a].center
	cb := pr.c.nodes[b].center
	if ca == cb {
		return true
	}
	_, ok := pr.cache[packPair(ca, cb)]
	return ok
}

// prefetch resolves, across the worker budget, every uncached center-pair
// distance the pending pairs will need, then fills the cache in
// deterministic (first-occurrence) order. Every pending pair is eventually
// popped and resolved by generatePairs, so prefetch performs exactly the
// resolutions a sequential run would — just concurrently.
func (pr *pairResolver) prefetch(pending [][2]int32) {
	type job struct{ ca, cb int32 }
	var jobs []job
	for _, p := range pending {
		ca := pr.c.nodes[p[0]].center
		cb := pr.c.nodes[p[1]].center
		if ca == cb {
			continue
		}
		key := packPair(ca, cb)
		if _, ok := pr.cache[key]; ok {
			continue
		}
		// Reserve both directions so duplicates in pending dedupe; the
		// placeholder is overwritten with the resolved value below.
		pr.cache[key] = math.NaN()
		pr.cache[packPair(cb, ca)] = math.NaN()
		jobs = append(jobs, job{ca: ca, cb: cb})
	}
	if len(jobs) == 0 {
		return
	}
	out := make([]float64, len(jobs))
	pr.budget.parfor(len(jobs), func(i int) {
		out[i] = pr.resolve(jobs[i].ca, jobs[i].cb)
	})
	for i, j := range jobs {
		pr.cache[packPair(j.ca, j.cb)] = out[i]
		pr.cache[packPair(j.cb, j.ca)] = out[i]
	}
}

func (pr *pairResolver) resolve(ca, cb int32) float64 {
	// Canonicalize the direction: dg(ca, cb) and dg(cb, ca) agree only up
	// to floating-point noise in the SSAD engine, and which orientation is
	// requested first depends on traversal order — which prefetching
	// changes. Always resolving the ordered pair keeps every worker count
	// bit-identical.
	if ca > cb {
		ca, cb = cb, ca
	}
	// Walk both original paths bottom-up while centers persist.
	na := pr.t.leaf[ca]
	nb := pr.t.leaf[cb]
	for na >= 0 && nb >= 0 {
		if pr.t.nodes[na].center != ca || pr.t.nodes[nb].center != cb {
			break
		}
		if d, ok := pr.edges[packPair(na, nb)]; ok {
			return d
		}
		na = pr.t.nodes[na].parent
		nb = pr.t.nodes[nb].parent
	}
	// Lemma 4 guarantees the loop above finds an edge for every pair the
	// generation procedure considers; fall back to a direct SSAD so the
	// oracle stays correct even under numerical boundary effects.
	pr.ctr.resolverFallbacks.Add(1)
	d := pr.eng.DistancesTo(pr.pois[ca], []terrain.SurfacePoint{pr.pois[cb]}, geodesic.Stop{CoverTargets: true})
	return d[0]
}

// nodePair is one entry of the node pair set: a well-separated pair of
// compressed-tree nodes and the geodesic distance between their centers.
type nodePair struct {
	a, b int32
	dist float64
}

// generatePairs runs the splitting procedure of §3.3 on the compressed tree:
// starting from (root,root), non-well-separated pairs split their
// larger-radius node (ties by smaller node id) until every pair is
// well-separated. It returns the node pair set of SE.
//
// The control flow is strictly sequential (DFS pop order decides the output
// order). In the naive construction — where each resolution is a full SSAD
// — whenever the next pop would resolve a distance the cache does not hold,
// the resolver batch-resolves every pending pair on the stack in parallel
// first. Since each stacked pair is eventually popped, the batch does no
// speculative work, and the emitted pair set is byte-identical to a
// sequential run for every worker count.
func generatePairs(c *ctree, res *pairResolver, eps float64, ctr *buildCounters) ([]nodePair, error) {
	sep := 2/eps + 2
	var out []nodePair
	stack := [][2]int32{{c.root, c.root}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if res.prefetching && !res.cached(top[0], top[1]) {
			res.prefetch(stack)
		}
		stack = stack[:len(stack)-1]
		a, b := top[0], top[1]
		if ctr.pairsConsidered.Add(1) > 200_000_000 {
			return nil, fmt.Errorf("core: node-pair generation exploded (eps=%g too small?)", eps)
		}
		d := res.distance(a, b)
		ra := c.enlargedRadius(a)
		rb := c.enlargedRadius(b)
		if d >= sep*math.Max(ra, rb) {
			out = append(out, nodePair{a: a, b: b, dist: d})
			continue
		}
		// Split the node with the larger radius; break ties towards the
		// smaller node id.
		split, keep := a, b
		first := true // split node appears first in generated pairs
		switch {
		case c.nodes[a].radius > c.nodes[b].radius:
		case c.nodes[a].radius < c.nodes[b].radius:
			split, keep = b, a
			first = false
		case a > b:
			split, keep = b, a
			first = false
		}
		ch := c.nodes[split].children
		if len(ch) == 0 {
			// Two distinct leaves that are not well-separated cannot occur:
			// leaves have enlarged radius 0, so any pair of leaves is
			// well-separated (d >= 0). Reaching this means a == b == leaf
			// with d == 0, which the check above already accepted.
			return nil, fmt.Errorf("core: tried to split leaf node %d", split)
		}
		for _, child := range ch {
			if first {
				stack = append(stack, [2]int32{child, keep})
			} else {
				stack = append(stack, [2]int32{keep, child})
			}
		}
	}
	return out, nil
}
