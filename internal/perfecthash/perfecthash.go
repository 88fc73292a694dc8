// Package perfecthash implements the minimal-space perfect hash behind the
// SE oracle's node-pair set (§3.4: one O(1) probe per candidate pair). The
// table is a hash-and-displace layout (compact.go): construction is
// expected O(n) and deterministic in (keys, seed), and a lookup is two hash
// evaluations plus two loads.
package perfecthash

import "math/bits"

// mix is a strong 64-bit mixer (splitmix64 finalizer) applied before the
// range reduction, so that structured keys (packed ID pairs) spread well.
//
//sealint:hotpath
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash maps key into [0, mod) for the family member identified by mult. The
// key is re-mixed together with the multiplier (a fresh avalanche per family
// member) and reduced with the multiply-high trick, which uses the high bits
// of the product. A plain multiply-shift that keeps only low product bits is
// NOT a safe family here: two keys whose mixed values differ by a multiple
// of 2^(shift+log2(mod)) would collide under every multiplier.
//
//sealint:hotpath
func hash(key, mult uint64, mod int) int {
	if mod <= 1 {
		return 0
	}
	z := mix(key ^ mult)
	hi, _ := bits.Mul64(z, uint64(mod))
	return int(hi)
}
