package perfecthash

import (
	"encoding/binary"
	"testing"
)

// FuzzLookup drives the compact layout with arbitrary key material: build a
// table from the fuzzed keys (deduplicated), then check that every member
// round-trips to its insertion index and that probes for arbitrary derived
// non-member keys neither panic nor alias onto a member.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, int64(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int64(3))
	seed := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i)<<32|uint64(i))
	}
	f.Add(seed, int64(4))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var keys []uint64
		dedup := map[uint64]bool{}
		for len(data) >= 8 {
			k := binary.LittleEndian.Uint64(data[:8])
			data = data[8:]
			if !dedup[k] {
				dedup[k] = true
				keys = append(keys, k)
			}
			if len(keys) >= 4096 {
				break
			}
		}
		tab := mustTable(t, keys, uint64(seed))
		// Derived probes: mutations of member keys plus a fixed battery.
		// Whatever the table answers must be consistent with membership.
		probe := func(k uint64) {
			v, ok := tab.lookup(k)
			if ok != dedup[k] {
				t.Fatalf("lookup(%#x) membership = %v, want %v", k, ok, dedup[k])
			}
			if ok && keys[v] != k {
				t.Fatalf("lookup(%#x) points at key %#x", k, keys[v])
			}
		}
		for _, k := range keys {
			probe(k ^ 1)
			probe(k + 1)
			probe(^k)
			probe(k << 1)
		}
		for _, k := range []uint64{0, 1, ^uint64(0), 0xdeadbeef, 1 << 63} {
			probe(k)
		}
	})
}
