package perfecthash

import (
	"math/rand"
	"testing"
)

// probeCompact resolves key the way a reader of the flat slot slab would:
// bucket → displacement → slot.
func probeCompact(key, seed uint64, disp []uint16, ns int) int32 {
	d := disp[CompactBucketOf(key, seed, len(disp))]
	return int32(CompactSlotOf(key, seed, d, ns))
}

// table is the test-side reader of a compact layout: like the oracle's slot
// slab it keeps each key inline in its slot (with the key's insertion index
// as the value), so a probe compares the stored key and non-members miss.
type table struct {
	seed uint64
	disp []uint16
	keys []uint64 // per slot
	vals []int32  // per slot; -1 = empty
}

// newTable builds the compact layout over keys and lays out its slots.
func newTable(keys []uint64, seed uint64) (*table, error) {
	disp, slotOf, used, err := BuildCompact(keys, seed)
	if err != nil {
		return nil, err
	}
	ns := CompactSlots(len(keys))
	tab := &table{seed: used, disp: disp, keys: make([]uint64, ns), vals: make([]int32, ns)}
	for i := range tab.vals {
		tab.vals[i] = -1
	}
	for i, s := range slotOf {
		tab.keys[s], tab.vals[s] = keys[i], int32(i)
	}
	return tab, nil
}

// lookup returns key's insertion index, or ok == false for a non-member.
func (tab *table) lookup(key uint64) (int32, bool) {
	s := probeCompact(key, tab.seed, tab.disp, len(tab.keys))
	if tab.vals[s] < 0 || tab.keys[s] != key {
		return 0, false
	}
	return tab.vals[s], true
}

// mustTable builds the table and checks every member finds its own index.
func mustTable(t *testing.T, keys []uint64, seed uint64) *table {
	t.Helper()
	tab, err := newTable(keys, seed)
	if err != nil {
		t.Fatalf("BuildCompact on %d keys: %v", len(keys), err)
	}
	for i, k := range keys {
		if v, ok := tab.lookup(k); !ok || v != int32(i) {
			t.Fatalf("lookup(%#x) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	return tab
}

func TestCompactRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 64, 900, 10000} {
		rng := rand.New(rand.NewSource(int64(n) + 7))
		keys := make([]uint64, n)
		seen := map[uint64]bool{}
		for i := range keys {
			for {
				k := rng.Uint64()
				if !seen[k] {
					seen[k] = true
					keys[i] = k
					break
				}
			}
		}
		disp, slotOf, seed, err := BuildCompact(keys, 0x5e0ac1e)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(disp) != CompactBuckets(n) {
			t.Fatalf("n=%d: %d disp entries, want %d", n, len(disp), CompactBuckets(n))
		}
		ns := CompactSlots(n)
		used := make(map[int32]int, n)
		for i, k := range keys {
			s := probeCompact(k, seed, disp, ns)
			if s != slotOf[i] {
				t.Fatalf("n=%d key %d: probe slot %d, placed at %d", n, i, s, slotOf[i])
			}
			if prev, dup := used[s]; dup {
				t.Fatalf("n=%d: keys %d and %d share slot %d", n, prev, i, s)
			}
			used[s] = i
		}
	}
}

func TestCompactDeterministic(t *testing.T) {
	keys := make([]uint64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	d1, s1, seed1, err1 := BuildCompact(keys, 42)
	d2, s2, seed2, err2 := BuildCompact(keys, 42)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if seed1 != seed2 {
		t.Fatalf("seeds differ: %#x vs %#x", seed1, seed2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("disp[%d] differs", i)
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("slotOf[%d] differs", i)
		}
	}
}

func TestCompactDuplicateKeys(t *testing.T) {
	keys := []uint64{1, 2, 3, 2, 5}
	if _, _, _, err := BuildCompact(keys, 1); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestCompactSpaceBound(t *testing.T) {
	// The whole point of the compact layout: slots stay within ~6% of n.
	for _, n := range []int{16, 900, 50000} {
		if ns := CompactSlots(n); float64(ns) > 1.07*float64(n)+1 {
			t.Fatalf("n=%d: %d slots (> 1.07n)", n, ns)
		}
	}
}
