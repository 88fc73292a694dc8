// Package core implements the paper's primary contribution: the
// Space-Efficient distance oracle (SE). The oracle is built from a partition
// tree over the POIs (§3.2), compressed (§3.2), decomposed into a
// well-separated node-pair set (§3.3) whose distances are resolved through
// enhanced edges (§3.5), and indexed with a compact perfect hash for O(h)
// queries (§3.4).
package core

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"seoracle/internal/btree"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// Selection chooses how Step 2(b)(i) picks the next disk center.
type Selection int

const (
	// SelectRandom picks a uniformly random remaining POI (the paper's
	// "random selection strategy"; SE(Random)).
	SelectRandom Selection = iota
	// SelectGreedy picks a random POI from the densest grid cell, maintained
	// with per-cell B+-trees and a max-heap of cell sizes (the paper's
	// "greedy selection strategy"; SE(Greedy)).
	SelectGreedy
)

// String returns the strategy's name as the paper writes it ("random",
// "greedy").
func (s Selection) String() string {
	if s == SelectGreedy {
		return "greedy"
	}
	return "random"
}

// maxLayers caps the partition-tree depth. Lemma 2 bounds the height by
// log(dmax/dmin)+1, which is < 56 even across nanometer-to-planet scales; a
// deeper tree means duplicate POIs slipped in.
const maxLayers = 64

// onode is a node of the (original, uncompressed) partition tree.
type onode struct {
	center int32 // POI index of the disk center
	layer  int32
	parent int32 // original-tree node id; -1 for the root
	radius float64
}

// ptree is the original partition tree.
type ptree struct {
	nodes  []onode
	layers [][]int32 // node ids per layer
	leaf   []int32   // POI index -> layer-h node id
	r0     float64
	height int32 // h: the leaf layer index
}

// buildPartitionTree runs the top-down construction of §3.2.
//
// It runs one SSAD for the root and one per distinct center. A center stays
// a center on every deeper layer (previous-layer centers are consumed
// first, and they lie more than twice the new radius apart, so none covers
// another), and its disk-and-parent SSAD on layer i only needs the POIs
// within 2·rᵢ. So a center's first SSAD, on its shallowest layer i,
// targets every POI within radius 2·rᵢ, and the row is kept trimmed to that
// radius; each deeper layer j reads the row filtered by its own radius
// 2·rⱼ, an entry beyond it counting as +Inf. A target's distance within a
// radius depends neither on a larger radius nor on the other targets, so
// every layer sees the bits a per-node SSAD over the remaining POIs and the
// previous centers would have returned, and the tree is the same.
func buildPartitionTree(eng geodesic.Engine, pois []terrain.SurfacePoint, sel Selection, seed int64) (*ptree, error) {
	n := len(pois)
	if n == 0 {
		return nil, fmt.Errorf("core: no POIs")
	}
	rng := rand.New(rand.NewSource(seed))
	t := &ptree{leaf: make([]int32, n)}

	// Step 1: root node. One SSAD from a random POI until every POI is
	// covered gives the root radius r0.
	rootCenter := int32(rng.Intn(n))
	d := eng.DistancesTo(pois[rootCenter], pois, geodesic.Stop{CoverTargets: true})
	r0 := 0.0
	for i, x := range d {
		if math.IsInf(x, 1) {
			return nil, fmt.Errorf("core: POI %d unreachable from POI %d (disconnected surface?)", i, rootCenter)
		}
		r0 = math.Max(r0, x)
	}
	t.r0 = r0
	t.nodes = append(t.nodes, onode{center: rootCenter, layer: 0, parent: -1, radius: r0})
	t.layers = append(t.layers, []int32{0})

	if n == 1 {
		// The root is also the leaf layer.
		t.leaf[rootCenter] = 0
		t.height = 0
		return t, nil
	}

	// coveredBy[q] is the previous-layer node whose disk removed POI q; at
	// layer 1 that is the root, whose disk covers every POI.
	coveredBy := make([]int32, n)
	nextCoveredBy := make([]int32, n)
	// rows[c] is center c's SSAD row, trimmed to the radius of its first
	// layer; nil until c first centers a node. dist is the current center's
	// row scattered over every POI (+Inf outside the layer's radius), reset
	// after each center.
	rows := make([][]rowEntry, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var idx []int32

	// Step 2: non-root layers.
	for layer := int32(1); ; layer++ {
		if layer >= maxLayers {
			return nil, fmt.Errorf("core: partition tree exceeded %d layers; are POIs deduplicated?", maxLayers)
		}
		ri := r0 / math.Pow(2, float64(layer))
		reach := 2 * ri * (1 + 1e-12)
		prev := t.layers[layer-1]

		rem := newRemaining(n, rng)
		var grid *selectionGrid
		if sel == SelectGreedy {
			grid = newSelectionGrid(pois, ri, rng)
		}
		// Previous-layer centers are consumed first (PC = P' ∩ C).
		pcQueue := make([]int32, len(prev))
		for i, id := range prev {
			pcQueue[i] = t.nodes[id].center
		}
		rng.Shuffle(len(pcQueue), func(i, j int) { pcQueue[i], pcQueue[j] = pcQueue[j], pcQueue[i] })

		var layerNodes []int32
		for rem.size > 0 {
			var p int32 = -1
			for len(pcQueue) > 0 {
				c := pcQueue[len(pcQueue)-1]
				pcQueue = pcQueue[:len(pcQueue)-1]
				if rem.contains(c) {
					p = c
					break
				}
			}
			if p < 0 {
				if grid != nil {
					p = grid.pick(rem)
				} else {
					p = rem.random()
				}
			}

			// One radius-bounded SSAD row covers both needs: POIs within ri
			// (the new disk) and the nearest previous-layer center (the
			// parent; within 2*ri by the Covering Property).
			if rows[p] == nil {
				row := []rowEntry{}
				for q, x := range eng.DistancesTo(pois[p], pois, geodesic.Stop{Radius: reach}) {
					if x <= reach {
						row = append(row, rowEntry{poi: int32(q), d: x})
					}
				}
				rows[p] = row
			}
			for _, e := range rows[p] {
				if e.d <= reach {
					dist[e.poi] = e.d
				}
			}

			// Parent: minimum-distance previous-layer node.
			bestParent := int32(-1)
			bestD := math.Inf(1)
			for _, id := range prev {
				if dd := dist[t.nodes[id].center]; dd < bestD {
					bestD = dd
					bestParent = id
				}
			}
			if bestParent < 0 {
				// The node whose disk removed p lies within 2*ri of p measured
				// from its own side (the Covering Property), but measured from
				// p's side the engine can put it a few ulps beyond the search
				// radius. It is a valid parent either way.
				bestParent = coveredBy[p]
			}

			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, onode{center: p, layer: layer, parent: bestParent, radius: ri})
			layerNodes = append(layerNodes, id)

			// Remove covered POIs, in the remaining set's order.
			idx = append(idx[:0], rem.items()...)
			for _, q := range idx {
				if dist[q] <= ri {
					nextCoveredBy[q] = id
					rem.remove(q)
					if grid != nil {
						grid.remove(q)
					}
				}
			}
			if rem.contains(p) {
				// The center always covers itself; guard against numerical
				// surprises in the engine.
				nextCoveredBy[p] = id
				rem.remove(p)
				if grid != nil {
					grid.remove(p)
				}
			}
			for _, e := range rows[p] {
				dist[e.poi] = math.Inf(1)
			}
		}
		t.layers = append(t.layers, layerNodes)
		coveredBy, nextCoveredBy = nextCoveredBy, coveredBy
		if len(layerNodes) == n {
			t.height = layer
			for _, id := range layerNodes {
				t.leaf[t.nodes[id].center] = id
			}
			return t, nil
		}
	}
}

// remaining is a set of POI indices with O(1) random selection and removal.
type remaining struct {
	items_ []int32
	pos    []int32 // POI -> position in items_, or -1
	size   int
	rng    *rand.Rand
}

func newRemaining(n int, rng *rand.Rand) *remaining {
	r := &remaining{items_: make([]int32, n), pos: make([]int32, n), size: n, rng: rng}
	for i := range r.items_ {
		r.items_[i] = int32(i)
		r.pos[i] = int32(i)
	}
	return r
}

func (r *remaining) contains(p int32) bool { return r.pos[p] >= 0 }

func (r *remaining) remove(p int32) {
	i := r.pos[p]
	if i < 0 {
		return
	}
	last := r.items_[r.size-1]
	r.items_[i] = last
	r.pos[last] = i
	r.pos[p] = -1
	r.size--
	r.items_ = r.items_[:r.size]
}

func (r *remaining) random() int32 { return r.items_[r.rng.Intn(r.size)] }

func (r *remaining) items() []int32 { return r.items_[:r.size] }

// selectionGrid implements the greedy strategy's grid of Implementation
// Detail 1: POIs binned by x-y cell, each cell's IDs in a B+-tree, and a
// lazy max-heap over cell sizes.
type selectionGrid struct {
	cellW      float64
	minX, minY float64
	nx         int
	cells      map[int]*btree.Tree
	cellOf     []int
	heap       cellHeap
	rng        *rand.Rand
}

type cellEntry struct {
	cell int
	size int
}

type cellHeap []cellEntry

func (h cellHeap) Len() int { return len(h) }
func (h cellHeap) Less(i, j int) bool {
	// Tie-break equal sizes by cell id so the densest-cell choice is a
	// deterministic function of the seed, not of heap-insertion order.
	if h[i].size != h[j].size {
		return h[i].size > h[j].size
	}
	return h[i].cell < h[j].cell
}
func (h cellHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x interface{}) { *h = append(*h, x.(cellEntry)) }
func (h *cellHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func newSelectionGrid(pois []terrain.SurfacePoint, cellW float64, rng *rand.Rand) *selectionGrid {
	g := &selectionGrid{cellW: cellW, cells: map[int]*btree.Tree{}, rng: rng,
		minX: math.Inf(1), minY: math.Inf(1)}
	for _, p := range pois {
		g.minX = math.Min(g.minX, p.P.X)
		g.minY = math.Min(g.minY, p.P.Y)
	}
	maxX := math.Inf(-1)
	for _, p := range pois {
		maxX = math.Max(maxX, p.P.X)
	}
	g.nx = int((maxX-g.minX)/cellW) + 2
	g.cellOf = make([]int, len(pois))
	for i, p := range pois {
		ci := int((p.P.X - g.minX) / cellW)
		cj := int((p.P.Y - g.minY) / cellW)
		cell := cj*g.nx + ci
		g.cellOf[i] = cell
		tr := g.cells[cell]
		if tr == nil {
			tr = &btree.Tree{}
			g.cells[cell] = tr
		}
		tr.Insert(int64(i))
	}
	// Initialize the heap in sorted cell order: map iteration order is
	// randomized per process, and seeding the heap from it would make the
	// greedy strategy nondeterministic even for a fixed Options.Seed.
	cells := make([]int, 0, len(g.cells))
	for cell := range g.cells {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	for _, cell := range cells {
		heap.Push(&g.heap, cellEntry{cell: cell, size: g.cells[cell].Len()})
	}
	return g
}

// pick returns a random POI from the densest non-empty cell.
func (g *selectionGrid) pick(rem *remaining) int32 {
	for g.heap.Len() > 0 {
		top := g.heap[0]
		tr := g.cells[top.cell]
		if tr == nil || tr.Len() == 0 {
			heap.Pop(&g.heap)
			continue
		}
		if tr.Len() != top.size {
			// Stale heap entry: refresh lazily.
			heap.Pop(&g.heap)
			heap.Push(&g.heap, cellEntry{cell: top.cell, size: tr.Len()})
			continue
		}
		// Random member of the densest cell.
		k := g.rng.Intn(tr.Len())
		var chosen int64 = -1
		i := 0
		tr.Ascend(func(key int64) bool {
			if i == k {
				chosen = key
				return false
			}
			i++
			return true
		})
		if chosen >= 0 && rem.contains(int32(chosen)) {
			return int32(chosen)
		}
		// Defensive: drop stale members.
		if chosen >= 0 {
			tr.Delete(chosen)
		}
	}
	// Grid exhausted (should not happen while rem is non-empty).
	return rem.random()
}

// remove deletes a POI from its grid cell.
func (g *selectionGrid) remove(p int32) {
	cell := g.cellOf[p]
	if tr := g.cells[cell]; tr != nil {
		tr.Delete(int64(p))
	}
}
