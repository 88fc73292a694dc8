package perfecthash

import (
	"errors"
	"fmt"
	"math/bits"
)

// compact.go — the hash-and-displace layout behind the oracle's slot slab.
// It stores exactly CompactSlots(n) ≈ 1.06n slots plus one uint16
// displacement per λ keys, and a probe is two loads:
//
//	bucket  = h(key, seed)            mod CompactBuckets(n)
//	slot    = h(key, seed ⊕ disp[b])  mod CompactSlots(n)
//
// Buckets are placed largest-first, each trying displacements 0..65535
// until its keys land on free, pairwise-distinct slots (Belazzougui,
// Botelho & Dietzfelbinger's "hash, displace and compress", minus the
// entropy coding — the displacement array stays flat so a probe is two
// loads off a byte slab). Construction is deterministic in (keys, seed).
// The table stores no keys: the reader keeps each key beside its value in
// the slot and compares it on probe, so non-members miss.

const (
	// compactLambda is the average bucket load; 4 keys per displacement
	// entry costs 0.5 bytes of displacement per key.
	compactLambda = 4
	// compactDispLimit bounds the per-bucket displacement search; uint16
	// displacements keep the slab at 2 bytes per bucket.
	compactDispLimit = 1 << 16
	// compactSeedStep folds the displacement into the hash seed; the odd
	// golden-ratio constant makes successive displacements behave as
	// independent family members.
	compactSeedStep = 0x9e3779b97f4a7c15
	// compactAttempts bounds the global-seed retries before construction
	// reports failure (expected: the first seed succeeds).
	compactAttempts = 64
)

// CompactBuckets returns the displacement-array length for an n-key compact
// table: ⌈n/λ⌉, at least 1.
func CompactBuckets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + compactLambda - 1) / compactLambda
}

// CompactSlots returns the slot-array length for an n-key compact table:
// n plus ~6% slack (load factor ≈ 0.94), at least 1. The slack is what
// keeps the tail of the displacement search short.
func CompactSlots(n int) int {
	if n <= 0 {
		return 1
	}
	return n + n/16 + 1
}

// CompactBucketOf returns key's bucket in a table of nb buckets under seed.
//
//sealint:hotpath
func CompactBucketOf(key, seed uint64, nb int) int {
	return hash(key, seed, nb)
}

// CompactSlotOf returns key's slot in a table of nSlots slots under seed
// and its bucket's displacement d.
//
//sealint:hotpath
func CompactSlotOf(key, seed uint64, d uint16, nSlots int) int {
	return hash(key, seed+compactSeedStep*(uint64(d)+1), nSlots)
}

// BuildCompact constructs the compact table over keys: disp is the
// per-bucket displacement array (CompactBuckets(len(keys)) entries), slotOf
// maps key index i to its slot in [0, CompactSlots(len(keys))), and
// usedSeed is the seed the probe functions must be given (the input seed,
// re-derived until placement succeeds). Construction is deterministic in
// (keys, seed) and fails on duplicate keys (at once) or pathological inputs.
func BuildCompact(keys []uint64, seed uint64) (disp []uint16, slotOf []int32, usedSeed uint64, err error) {
	nb := CompactBuckets(len(keys))
	ns := CompactSlots(len(keys))
	for attempt := 0; attempt < compactAttempts; attempt++ {
		s := mix(seed + compactSeedStep*uint64(attempt))
		disp, slotOf, err := placeCompact(keys, s, nb, ns)
		if err == nil {
			return disp, slotOf, s, nil
		}
		if err != errUnplaced {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, fmt.Errorf("perfecthash: compact build failed after %d seeds", compactAttempts)
}

// errUnplaced reports a bucket no displacement could place under one seed;
// BuildCompact retries with the next seed.
var errUnplaced = errors.New("perfecthash: bucket unplaceable under this seed")

// placeCompact attempts one full placement under seed: group keys into
// buckets, then place buckets largest-first (ties toward the lower bucket)
// by searching displacements. Equal keys always share a bucket, so
// duplicates are caught here before the search could spin on them.
func placeCompact(keys []uint64, seed uint64, nb, ns int) ([]uint16, []int32, error) {
	// Group key indices by bucket: bucket b owns ids[start[b]:start[b+1]],
	// in ascending key index.
	bkt := make([]int32, len(keys))
	start := make([]int32, nb+1)
	for i, k := range keys {
		b := int32(CompactBucketOf(k, seed, nb))
		bkt[i] = b
		start[b+1]++
	}
	maxSize := int32(0)
	for b := 0; b < nb; b++ {
		maxSize = max(maxSize, start[b+1])
		start[b+1] += start[b]
	}
	ids := make([]int32, len(keys))
	next := append([]int32(nil), start[:nb]...)
	for i, b := range bkt {
		ids[next[b]] = int32(i)
		next[b]++
	}
	for b := 0; b < nb; b++ {
		grp := ids[start[b]:start[b+1]]
		for x := 1; x < len(grp); x++ {
			for _, y := range grp[:x] {
				if keys[grp[x]] == keys[y] {
					return nil, nil, fmt.Errorf("perfecthash: duplicate key %#x", keys[y])
				}
			}
		}
	}
	// Order buckets by size, largest first, with a counting sort that keeps
	// equal sizes in ascending bucket order.
	pos := make([]int32, maxSize+1)
	for b := 0; b < nb; b++ {
		pos[start[b+1]-start[b]]++
	}
	for sz, acc := maxSize, int32(0); sz >= 0; sz-- {
		pos[sz], acc = acc, acc+pos[sz]
	}
	order := make([]int32, nb)
	for b := 0; b < nb; b++ {
		sz := start[b+1] - start[b]
		order[pos[sz]] = int32(b)
		pos[sz]++
	}

	taken := make([]uint8, ns) // 1 = slot in use
	disp := make([]uint16, nb)
	slotOf := make([]int32, len(keys))
	kb := make([]uint64, maxSize)
	tmp := make([]int32, maxSize)
	for _, b := range order {
		grp := ids[start[b]:start[b+1]]
		if len(grp) == 0 {
			break // the remaining buckets are empty too
		}
		for j, id := range grp {
			kb[j] = keys[id]
		}
		gk := kb[:len(grp)]
		d, ok := searchDisp(gk, seed, ns, taken, tmp)
		if !ok {
			return nil, nil, errUnplaced
		}
		for j, id := range grp {
			taken[tmp[j]] = 1
			slotOf[id] = tmp[j]
		}
		disp[b] = uint16(d)
	}
	return disp, slotOf, nil
}

// searchDisp returns the first displacement d that lands every key of one
// bucket on a free slot, pairwise distinct, leaving the slots in tmp. Most
// tries fail on the first key, so its slots are hashed and tested eight
// displacements at a time without branching (independent multiplies that
// pipeline, and a bitmask of the free ones); the other keys are checked
// only for the candidates it survives, in ascending d.
func searchDisp(gk []uint64, seed uint64, ns int, taken []uint8, tmp []int32) (int, bool) {
	var s0 [8]int32
	for d := 0; d < compactDispLimit; d += len(s0) {
		var free uint
		for u := range s0 {
			s0[u] = int32(hash(gk[0], seed+compactSeedStep*uint64(d+u+1), ns))
			free |= uint(1-taken[s0[u]]) << u
		}
	candidate:
		for ; free != 0; free &= free - 1 {
			u := bits.TrailingZeros(free)
			mult := seed + compactSeedStep*uint64(d+u+1) // CompactSlotOf's family member for d+u
			tmp[0] = s0[u]
			for j := 1; j < len(gk); j++ {
				sj := int32(hash(gk[j], mult, ns))
				if taken[sj] != 0 {
					continue candidate
				}
				for _, prev := range tmp[:j] {
					if prev == sj {
						continue candidate
					}
				}
				tmp[j] = sj
			}
			return d + u, true
		}
	}
	return 0, false
}
