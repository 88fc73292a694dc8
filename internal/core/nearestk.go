package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"seoracle/internal/btree"
	"seoracle/internal/terrain"
)

// nearestk.go — the k-nearest-POI workload (the serving layer's
// /v1/nearest?k=N), generalizing NearestFinder. Candidates are generated in
// distance order from a B+-tree over packed (quantized distance, id) keys:
// a float32 quantization of each squared planar distance rides the key's
// high 32 bits and the id its low 32, so the tree's ascending order is
// distance order up to quantization, with ids breaking quantized ties. The
// ascent collects every key whose quantized distance does not exceed the
// k-th smallest — the quantization is monotone, so any point outside that
// prefix is strictly farther than every point inside it and the true top k
// live in the collected set — and an exact (d², id) sort over the
// candidates yields the final answer. The result is therefore exact and
// deterministic, including across encode → load.

// Neighbor is one answer of a NearestK query: an indexed endpoint, its
// surface point, and its planar distance to the query position.
type Neighbor struct {
	ID     int32
	At     terrain.SurfacePoint
	Planar float64
}

// NearestKFinder is implemented by indexes that can report the k indexed
// endpoints nearest to a planar position, in ascending (distance, id)
// order. NearestK with k = 1 returns exactly NearestFinder.Nearest's
// answer.
type NearestKFinder interface {
	NearestFinder
	// NearestK returns up to k indexed endpoints ordered by planar distance
	// to (x, y), ties toward the lower id. Fewer than k neighbors are
	// returned only when the index holds fewer live points.
	NearestK(x, y float64, k int) ([]Neighbor, error)
}

// packNearKey packs a squared distance and an id into one B+-tree key whose
// ascending int64 order is (quantized distance, id) order: non-negative
// IEEE floats compare like their bit patterns, so the float32 image of d2
// (rounded, possibly to +Inf — both preserve ordering) sorts correctly from
// the high bits. Keys are unique because ids are.
func packNearKey(d2 float64, id int32) int64 {
	return int64(math.Float32bits(float32(d2)))<<32 | int64(uint32(id))
}

// nearestKScan is the shared NearestK implementation over a point table:
// B+-tree candidate generation in quantized-distance order, then an exact
// sort of the candidate prefix. Deterministic for a given point table.
func nearestKScan(pts []terrain.SurfacePoint, skip func(int32) bool, x, y float64, k int) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: nearest-k needs k >= 1 (got %d)", k)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: index carries no point table")
	}
	d2s := make([]float64, len(pts))
	var t btree.Tree
	for i, p := range pts {
		if skip != nil && skip(int32(i)) {
			continue
		}
		dx, dy := p.P.X-x, p.P.Y-y
		d2s[i] = dx*dx + dy*dy
		t.Insert(packNearKey(d2s[i], int32(i)))
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: no live indexed points")
	}
	// Collect the candidate prefix: every key whose quantized distance is
	// <= the k-th smallest quantized distance (the whole tie group, so the
	// exact sort below sees every point that could be in the true top k).
	var (
		cand []int32
		qk   uint32
	)
	t.Ascend(func(key int64) bool {
		q := uint32(uint64(key) >> 32)
		if len(cand) >= k && q > qk {
			return false
		}
		cand = append(cand, int32(uint32(uint64(key))))
		if len(cand) == k {
			qk = q
		}
		return true
	})
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if d2s[a] != d2s[b] {
			return d2s[a] < d2s[b]
		}
		return a < b
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	out := make([]Neighbor, len(cand))
	for i, id := range cand {
		out[i] = Neighbor{ID: id, At: pts[id], Planar: math.Sqrt(d2s[id])}
	}
	return out, nil
}

// NearestK returns up to k sites ordered by planar distance to (x, y), ties
// toward the lower id. Part of the NearestKFinder interface.
func (so *SiteOracle) NearestK(x, y float64, k int) ([]Neighbor, error) {
	return nearestKScan(so.q.pts, nil, x, y, k)
}

// NearestK returns up to k live POIs (tombstones are skipped) ordered by
// planar distance to (x, y), ties toward the lower id. Part of the
// NearestKFinder interface.
func (d *DynamicOracle) NearestK(x, y float64, k int) ([]Neighbor, error) {
	return nearestKScan(d.pois, func(id int32) bool { return d.deleted[id] }, x, y, k)
}

// MemberNeighbor is one answer of a cross-member NearestKAcross query: a
// Neighbor tagged with the member that owns it (ids are member-local, so
// the member name is part of the identity).
type MemberNeighbor struct {
	Member string
	Neighbor
}

// NearestKAcross returns up to k indexed endpoints over every member that
// answers nearest-k queries, ordered by (planar distance, member name, id)
// — the unnamed-/v1/nearest?k=N semantics of the serving layer. Every
// member is scanned (bboxes are routing hints, not point bounds) and the
// ordering depends only on the members themselves, so the answer survives
// encode → load unchanged. Members that cannot answer are skipped; an error
// is returned only when no member produced an answer.
func (sh *ShardedIndex) NearestKAcross(x, y float64, k int) ([]MemberNeighbor, error) {
	return sh.NearestKAcrossCtx(context.Background(), x, y, k)
}

// NearestKAcrossCtx answers NearestKAcross under a context, checking
// cancellation before each member's scan — the fan-out stops at member
// granularity once the serving layer's request deadline expires.
func (sh *ShardedIndex) NearestKAcrossCtx(ctx context.Context, x, y float64, k int) ([]MemberNeighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: nearest-k needs k >= 1 (got %d)", k)
	}
	var all []MemberNeighbor
	answered := false
	for mi, m := range sh.members {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: nearest-k cancelled at member %q: %w", m.Name, err)
		}
		if sh.hier != nil && sh.hier.levels[sh.ord[mi]] != 0 {
			continue // coarse members hold sites, not POIs
		}
		ns, err := sh.memberNearestK(mi, x, y, k)
		if err != nil {
			continue
		}
		answered = true
		for _, n := range ns {
			all = append(all, MemberNeighbor{Member: m.Name, Neighbor: n})
		}
	}
	if !answered {
		return nil, fmt.Errorf("core: no member of the multi index answered a nearest query")
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Planar != b.Planar {
			return a.Planar < b.Planar
		}
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.ID < b.ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}
