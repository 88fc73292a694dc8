package perfecthash

import "testing"

// Regression: keys whose mixed values differ by a multiple of a large power
// of two must still be separable by the slot hash family. An earlier
// multiply-shift family kept only low product bits, making such key pairs
// collide under every multiplier (observed with real oracle pair keys
// 0x19c0000020c and 0x2e000000427, whose mixes differ by a multiple of
// 2^19).
func TestStructuredDifferenceKeys(t *testing.T) {
	mustTable(t, []uint64{0x19c0000020c, 0x2e000000427}, 2)
}

// The same property must hold for adversarial batches: many keys at
// constant stride (mix differences share low-zero structure more often).
func TestStridedKeys(t *testing.T) {
	for _, stride := range []uint64{1 << 19, 1 << 32, 0x100000001} {
		keys := make([]uint64, 2000)
		for i := range keys {
			keys[i] = uint64(i) * stride
		}
		mustTable(t, keys, 3)
	}
}
