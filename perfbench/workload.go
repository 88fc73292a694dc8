package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/terrain"
)

// config is one workload's fixed parameters. Together with --seed and
// --seconds they determine every input of a run; nothing is read from disk.
type config struct {
	name string

	// Terrain (gen.Fractal) and POIs (gen.UniformPOIs).
	gridSide int // vertices per grid side
	pois     int
	// terrainSeed and poiSeed, when non-zero, fix the terrain and POIs
	// instead of deriving them from --seed. tiled-budget's index then is the
	// same for every seed, which holds its per-fault cost still; see
	// NOTES.md.
	terrainSeed, poiSeed int64

	eps float64
	// shards == 0 serves a flat SE container; shards > 0 a hierarchical
	// multi container of that many fine tiles plus one coarse level.
	shards       int
	sitesPerEdge int

	cacheSize int // server.Options.CacheSize
	// serveProcs, when positive, is GOMAXPROCS while serving. With one P the
	// client hands each scalar request to the server on the same CPU; with
	// two, every request woke a thread on the other vCPU, and on a shared VM
	// those wake-ups doubled p99 and its run-to-run spread. bulk-mix keeps
	// every P: its matrix rows run in parallel, and on one P its runs split
	// into a fast and a slow mode.
	serveProcs int
	perSecond  int // timed requests per --seconds; never derived from speed
	warmup     int // untimed requests sent before timing
	rounds     int // the timed sequence is cut into this many rounds
	setupReps  int // set-ups per run; setup_s is their median
	exactN     int // answers checked against geodesic.Exact

	// bulk-mix request shape. The shares, sizes and tiled-budget's locality
	// below, like point-lookup's Zipf exponent, are assumptions: no measured
	// traffic stands behind them (see NOTES.md).
	batchPairs int
	batchPool  int // distinct batch bodies, cycled (batches bypass the cache)
	matrixSide int
	mixBatch   float64 // share of /v1/batch requests
	mixMatrix  float64 // share of /v1/matrix requests; the rest are /v1/path

	// tiled-budget locality.
	epochLen int     // requests per hot-tile position
	sameTile float64 // share of pairs inside the hot tile
	adjacent float64 // share of pairs into an edge-sharing tile; the rest go far
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"point-lookup", "bulk-mix", "tiled-budget"}

// configFor returns the named workload at the given size: "full" is the
// benchmark proper, "tiny" a seconds-long run for the package's tests.
func configFor(name, size string) (config, error) {
	var c config
	switch name {
	case "point-lookup":
		c = config{gridSide: 17, pois: 150, cacheSize: 1024, serveProcs: 1,
			perSecond: 30000, warmup: 5000, rounds: 30, setupReps: 3, exactN: 16}
	case "bulk-mix":
		c = config{gridSide: 17, pois: 150, cacheSize: 1024,
			perSecond: 1200, warmup: 200, rounds: 12, setupReps: 3, exactN: 16,
			batchPairs: 1024, batchPool: 64, matrixSide: 32, mixBatch: 0.3, mixMatrix: 0.3}
	case "tiled-budget":
		c = config{gridSide: 11, pois: 80, terrainSeed: 1701, poiSeed: 1705,
			shards: 9, sitesPerEdge: 1, cacheSize: 0, serveProcs: 1,
			perSecond: 8000, warmup: 1600, rounds: 50, setupReps: 3, exactN: 8,
			epochLen: 100, sameTile: 0.85, adjacent: 0.10}
	default:
		return c, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	c.name, c.eps = name, 0.25
	switch size {
	case "full":
	case "tiny":
		// tiled-budget keeps its full-size fixture: on the 9×9 terrain with
		// 40 POIs one of its nine tiles holds a single POI, too few for the
		// request generator.
		if c.shards == 0 {
			c.gridSide, c.pois = 9, 24
		}
		c.perSecond, c.warmup, c.rounds, c.setupReps, c.exactN = 60, 20, 2, 2, 4
		c.batchPairs, c.batchPool, c.matrixSide = 64, 4, 4
		c.epochLen = 20
	default:
		return c, fmt.Errorf("unknown size %q (full or tiny)", size)
	}
	return c, nil
}

// reqKind is the endpoint a request addresses.
type reqKind uint8

const (
	kindQuery reqKind = iota
	kindBatch
	kindMatrix
	kindPath
)

var kindNames = [...]string{"query", "batch", "matrix", "path"}

// request is one pre-generated HTTP request: a GET of ids s and t, or a
// POST of a body in inputs.batches or inputs.matrices. It holds no
// pointers, so the garbage collector never scans the request stream.
type request struct {
	kind reqKind
	s, t int32  // query and path endpoints
	body int32  // batch or matrix index
	want uint64 // digest of the direct call's answer, set before timing
}

// appendHTTP appends r as HTTP/1.1 request bytes. A non-negative reqID is
// sent in the header the traced handler reads.
func (r *request) appendHTTP(dst []byte, in *inputs, reqID int32) []byte {
	var body []byte
	switch r.kind {
	case kindBatch:
		dst, body = append(dst, "POST /v1/batch"...), in.batches[r.body].body
	case kindMatrix:
		dst, body = append(dst, "POST /v1/matrix"...), in.matrices[r.body].body
	default:
		dst = append(dst, "GET /v1/"...)
		dst = append(dst, kindNames[r.kind]...)
		dst = append(dst, "?s="...)
		dst = strconv.AppendInt(dst, int64(r.s), 10)
		dst = append(dst, "&t="...)
		dst = strconv.AppendInt(dst, int64(r.t), 10)
	}
	return appendHeaders(dst, body, reqID)
}

// appendHeaders completes a request line with the headers and the body.
func appendHeaders(dst, body []byte, reqID int32) []byte {
	dst = append(dst, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	if reqID >= 0 {
		dst = append(dst, reqIDHeader+": "...)
		dst = strconv.AppendInt(dst, int64(reqID), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// batchInput and matrixInput are POST bodies, encoded before timing.
type batchInput struct {
	pairs [][2]int32
	body  []byte
}

type matrixInput struct {
	sources, targets []int32
	body             []byte
}

// inputs is everything a run sends, generated from the seed.
type inputs struct {
	mesh *terrain.Mesh
	pois []terrain.SurfacePoint
	// points maps a request's POI id to its surface point: pois itself,
	// or the global id space of a hierarchical index.
	points   []terrain.SurfacePoint
	tileOf   []int // global id -> tile, on a hierarchical index
	warm     []request
	timed    []request
	batches  []batchInput
	matrices []matrixInput
}

// genTerrain makes the terrain and POIs of a run.
func genTerrain(c config, seed int64) (*inputs, error) {
	tseed, pseed := seed, seed+7919
	if c.terrainSeed != 0 {
		tseed, pseed = c.terrainSeed, c.poiSeed
	}
	m, err := gen.Fractal(gen.FractalSpec{NX: c.gridSide, NY: c.gridSide, CellDX: 30, Amp: 220, Seed: tseed})
	if err != nil {
		return nil, fmt.Errorf("generating terrain: %w", err)
	}
	pois, err := gen.UniformPOIs(m, c.pois, pseed)
	if err != nil {
		return nil, fmt.Errorf("generating POIs: %w", err)
	}
	return &inputs{mesh: m, pois: pois, points: pois}, nil
}

// requestRNGs returns the warm-up and timed request streams' generators.
// They are distinct, so warm-up never pre-answers a timed request by
// construction; only the workload's own skew makes requests repeat.
func requestRNGs(seed int64) (warm, timed *rand.Rand) {
	return rand.New(rand.NewSource(seed*31 + 1)), rand.New(rand.NewSource(seed*31 + 2))
}

// genPointLookup draws id pairs Zipf-skewed over a seeded permutation of all
// ordered pairs, a pair space far larger than the server cache. The exponent
// 1.1 is assumed, not measured, and it alone sets the cache hit ratio
// (about 73% at full size).
func genPointLookup(in *inputs, c config, seed int64, count int) {
	n := c.pois
	space := n * (n - 1)
	draw := func(rng *rand.Rand, k int) []request {
		perm := rng.Perm(space)
		z := rand.NewZipf(rng, 1.1, 1, uint64(space-1))
		out := make([]request, k)
		for i := range out {
			p := perm[z.Uint64()]
			s, t := int32(p/(n-1)), int32(p%(n-1))
			if t >= s {
				t++
			}
			out[i] = request{kind: kindQuery, s: s, t: t}
		}
		return out
	}
	wr, tr := requestRNGs(seed)
	in.warm = draw(wr, c.warmup)
	in.timed = draw(tr, count)
}

// genBulkMix draws a seeded mix of batch, matrix and path requests. A path
// pair recurs only after all the others were sent (not at all in runs up to
// about 23 s) and every matrix is drawn afresh, so the server cache only
// inserts and evicts; batch bodies come from a small pool because
// /v1/batch bypasses the cache.
func genBulkMix(in *inputs, c config, seed int64, count int) error {
	n := c.pois
	wr, tr := requestRNGs(seed)
	pairRng := rand.New(rand.NewSource(seed*31 + 3))
	var unordered [][2]int32
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			unordered = append(unordered, [2]int32{int32(s), int32(t)})
		}
	}
	pairRng.Shuffle(len(unordered), func(i, j int) { unordered[i], unordered[j] = unordered[j], unordered[i] })

	for b := 0; b < c.batchPool; b++ {
		pairs := make([][2]int32, c.batchPairs)
		for i := range pairs {
			s := int32(pairRng.Intn(n))
			t := int32(pairRng.Intn(n - 1))
			if t >= s {
				t++
			}
			pairs[i] = [2]int32{s, t}
		}
		body, err := json.Marshal(map[string]any{"pairs": pairs})
		if err != nil {
			return err
		}
		in.batches = append(in.batches, batchInput{pairs: pairs, body: body})
	}

	nextPath := 0
	draw := func(rng *rand.Rand, k int) ([]request, error) {
		// Exact shares, shuffled: the latency distribution has one mode per
		// kind, so a drifting mix would move its median between modes.
		kinds := make([]reqKind, k)
		nb, nm := int(float64(k)*c.mixBatch+0.5), int(float64(k)*c.mixMatrix+0.5)
		for i := range kinds {
			switch {
			case i < nb:
				kinds[i] = kindBatch
			case i < nb+nm:
				kinds[i] = kindMatrix
			default:
				kinds[i] = kindPath
			}
		}
		rng.Shuffle(k, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		out := make([]request, k)
		for i := range out {
			switch kinds[i] {
			case kindBatch:
				out[i] = request{kind: kindBatch, body: int32(rng.Intn(len(in.batches)))}
			case kindMatrix:
				perm := rng.Perm(n)
				m := matrixInput{
					sources: toInt32(perm[:c.matrixSide]),
					targets: toInt32(rng.Perm(n)[:c.matrixSide]),
				}
				body, err := json.Marshal(map[string]any{"sources": m.sources, "targets": m.targets})
				if err != nil {
					return nil, err
				}
				m.body = body
				in.matrices = append(in.matrices, m)
				out[i] = request{kind: kindMatrix, body: int32(len(in.matrices) - 1)}
			default:
				// Past the last distinct pair the sequence starts again. A
				// pair then recurs only after every other pair was sent,
				// len(unordered) (11 175 at full size) path requests later,
				// long after the LRU of cacheSize entries evicted it.
				p := unordered[nextPath%len(unordered)]
				nextPath++
				if rng.Intn(2) == 1 {
					p[0], p[1] = p[1], p[0]
				}
				out[i] = request{kind: kindPath, s: p[0], t: p[1]}
			}
		}
		return out, nil
	}
	var err error
	if in.warm, err = draw(wr, c.warmup); err != nil {
		return err
	}
	in.timed, err = draw(tr, count)
	return err
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// tile is one fine tile's grid cell and global POI ids.
type tile struct {
	ix, iy int
	ids    []int32
}

// tileLayout groups a freshly built hierarchical index's global ids by fine
// tile, read through the public global-id surface (MemberOf) and the tile
// names, and records each id's surface point and tile in the inputs.
func tileLayout(sh *core.ShardedIndex, in *inputs) ([]tile, error) {
	byName := map[string]int{}
	var tiles []tile
	in.points = make([]terrain.SurfacePoint, sh.NumGlobalIDs())
	in.tileOf = make([]int, sh.NumGlobalIDs())
	for g := 0; g < sh.NumGlobalIDs(); g++ {
		name, local, ok := sh.MemberOf(int32(g))
		if !ok {
			return nil, fmt.Errorf("global id %d has no member", g)
		}
		m, _ := sh.Member(name)
		o, ok := m.Index.(*core.Oracle)
		if !ok {
			return nil, fmt.Errorf("member %q is not a built SE tile", name)
		}
		in.points[g] = o.Points()[local]
		k, seen := byName[name]
		if !seen {
			var ix, iy int
			if _, err := fmt.Sscanf(name, "tile-%d-%d", &ix, &iy); err != nil {
				return nil, fmt.Errorf("member %q is not a fine tile: %v", name, err)
			}
			k = len(tiles)
			byName[name] = k
			tiles = append(tiles, tile{ix: ix, iy: iy})
		}
		tiles[k].ids = append(tiles[k].ids, int32(g))
		in.tileOf[g] = k
	}
	for _, t := range tiles {
		if len(t.ids) < 2 {
			return nil, fmt.Errorf("tile-%d-%d holds %d POIs; the generator needs two", t.ix, t.iy, len(t.ids))
		}
	}
	return tiles, nil
}

// genTiled draws global-id pairs around a hot tile: mostly same-tile pairs,
// some into an edge-sharing neighbour (the portal route) and the rest into
// a tile that shares no edge with the hot one (the coarse route). Every
// epochLen requests the hot tile steps along a fixed boustrophedon tour of
// the tile grid, back and forth from a seeded start, so every seed sees the
// same mix of corner, edge and centre tiles and tiles fault in and out of
// the memory budget at a steady rate.
func genTiled(in *inputs, c config, seed int64, count int, tiles []tile) {
	tour := make([]int, len(tiles))
	for i := range tour {
		tour[i] = i
	}
	sort.Slice(tour, func(a, b int) bool {
		ta, tb := tiles[tour[a]], tiles[tour[b]]
		if ta.iy != tb.iy {
			return ta.iy < tb.iy
		}
		if ta.iy%2 == 1 {
			return ta.ix > tb.ix
		}
		return ta.ix < tb.ix
	})
	neighbours := func(k int) (adj, far []int) {
		for j, t := range tiles {
			dx, dy := t.ix-tiles[k].ix, t.iy-tiles[k].iy
			switch {
			case j == k:
			case dx*dx+dy*dy == 1:
				adj = append(adj, j)
			default:
				far = append(far, j)
			}
		}
		return adj, far
	}
	draw := func(rng *rand.Rand, k int) []request {
		step := rng.Intn(2*len(tour) - 2)
		out := make([]request, k)
		pick := func(tile int) int32 { ids := tiles[tile].ids; return ids[rng.Intn(len(ids))] }
		for i := range out {
			if i > 0 && i%c.epochLen == 0 {
				step = (step + 1) % (2*len(tour) - 2)
			}
			pos := step
			if pos >= len(tour) {
				pos = 2*len(tour) - 2 - pos
			}
			hot := tour[pos]
			adj, far := neighbours(hot)
			s := pick(hot)
			var t int32
			u := rng.Float64()
			switch {
			case u < c.sameTile || (len(adj) == 0 && len(far) == 0):
				for t = pick(hot); t == s; t = pick(hot) {
				}
			case u < c.sameTile+c.adjacent && len(adj) > 0 || len(far) == 0:
				t = pick(adj[rng.Intn(len(adj))])
			default:
				t = pick(far[rng.Intn(len(far))])
			}
			out[i] = request{kind: kindQuery, s: s, t: t}
		}
		return out
	}
	wr, tr := requestRNGs(seed)
	in.warm = draw(wr, c.warmup)
	in.timed = draw(tr, count)
}
