package server

// ftoa.go — the codec's float formatter: appendFloat writes a float64 as
// json.Marshal does, byte for byte. The digits are the shortest that read
// back as the same double, the closest such to its exact value, ties to
// the even digit (what strconv prints for precision -1), found by
// Giulietti's Schubfach algorithm ("The Schubfach way to render doubles",
// 2020): three round-to-odd 64×128-bit products of the scaled binary
// interval against a 126-bit power of ten, one table read, no loop over
// candidate lengths. The layout is json's: 'f' form for magnitudes in
// [1e-6, 1e21) and for zero, 'e' form otherwise with the exponent in its
// shortest form (e-7, e+21).

import (
	"math"
	"math/big"
	"math/bits"
)

// Binary64 parameters, named as in the Schubfach paper.
const (
	fracBits = 52              // stored significand bits
	cMin     = 1 << fracBits   // smallest significand of a normal double
	qMin     = -1074           // exponent of the subnormals' unit
	kMin     = -324            // flog10pow2(qMin)
	kMax     = 292             // flog10pow2 of the largest exponent, 971
	mask63   = 1<<63 - 1       // low 63 bits
	expMask  = 1<<11 - 1       // biased exponent field
	fracMask = 1<<fracBits - 1 // stored significand field
)

// pow10g holds, for k in [kMin, kMax] at index k-kMin, g = g1·2^63 + g0:
// 10^-k scaled by a power of two into [2^125, 2^126), floored, plus one.
// It is built once at package init.
var pow10g = func() (g [kMax - kMin + 1][2]uint64) {
	ten, one := big.NewInt(10), big.NewInt(1)
	num, den := new(big.Int), new(big.Int)
	for k := kMin; k <= kMax; k++ {
		num.Exp(ten, big.NewInt(int64(max(-k, 0))), nil)
		den.Exp(ten, big.NewInt(int64(max(k, 0))), nil)
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		num.Quo(num, den).Add(num, one)
		g[k-kMin] = [2]uint64{new(big.Int).Rsh(num, 63).Uint64(), num.Uint64() & mask63}
	}
	return g
}()

// pow10u holds 10^i for i in [0, 19].
var pow10u = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// flog10pow2 is floor(log10(2^e)) for |e| <= 5456721.
func flog10pow2(e int) int { return e * 661971961083 >> 41 }

// flog10threeQuartersPow2 is floor(log10(3/4 · 2^e)) for |e| <= 5456721.
func flog10threeQuartersPow2(e int) int { return (e*661971961083 - 274743187321) >> 41 }

// flog2pow10 is floor(log2(10^e)) for |e| <= 1233.
func flog2pow10(e int) int { return e * 913124641741 >> 38 }

// appendFloat encodes f as encoding/json does: the shortest round-trip
// digits, 'e' form below 1e-6 and from 1e21, with the exponent's leading
// zero dropped. A NaN or ±Inf, which JSON cannot carry, declines.
//
//sealint:hotpath
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	var buf [32]byte
	w := 0
	if math.Signbit(f) {
		buf[0] = '-'
		w = 1
	}
	if f == 0 {
		buf[w] = '0'
		return appendRaw(b, buf[:w+1]), true
	}
	m, e := shortest(math.Float64bits(f))
	n := digitCount(m)
	dp := n + e // f = ±0.d₁…dₙ × 10^dp
	switch abs := math.Abs(f); {
	case abs < 1e-6 || abs >= 1e21: // d₁.d₂…dₙe±x
		putDigits(&buf, w+1+n, m)
		buf[w] = buf[w+1]
		if n > 1 {
			buf[w+1] = '.'
			w += n + 1
		} else {
			w++
		}
		x := dp - 1
		buf[w], buf[w+1] = 'e', '+'
		if x < 0 {
			buf[w+1] = '-'
			x = -x
		}
		w += 2 + digitCount(uint64(x))
		putDigits(&buf, w, uint64(x))
	case dp <= 0: // 0.00…d₁…dₙ
		buf[w], buf[w+1] = '0', '.'
		w += 2
		for ; dp < 0; dp++ {
			buf[w] = '0'
			w++
		}
		w += n
		putDigits(&buf, w, m)
	case dp < n: // d₁…d_dp.…dₙ
		putDigits(&buf, w+1+n, m)
		for i := w; i < w+dp; i++ { // usually a few digits: cheaper than a memmove call
			buf[i] = buf[i+1]
		}
		buf[w+dp] = '.'
		w += n + 1
	default: // d₁…dₙ00…
		w += n
		putDigits(&buf, w, m)
		for ; dp > n; dp-- {
			buf[w] = '0'
			w++
		}
	}
	return appendRaw(b, buf[:w]), true
}

// shortest returns the decimal m × 10^e, m without trailing zeros, that
// strconv prints for the finite nonzero double with the given bits.
//
//sealint:hotpath
func shortest(fb uint64) (m uint64, e int) {
	t := fb & fracMask
	bq := int(fb>>fracBits) & expMask
	switch {
	case bq != 0:
		mq := -qMin + 1 - bq // minus the exponent of the significand's unit
		c := cMin | t
		if 0 < mq && mq <= fracBits && c>>mq<<mq == c {
			m = c >> mq // an integer below 2^53 is its own shortest decimal
		} else {
			m, e = toDecimal(-mq, c)
		}
	default: // subnormal
		m, e = toDecimal(qMin, t)
	}
	for m%10 == 0 {
		m /= 10
		e++
	}
	return m, e
}

// toDecimal is Schubfach on c × 2^q: it returns the shortest decimal in
// the rounding interval of c × 2^q, the one closest to it when two are,
// the even one on a tie, as d × 10^e.
//
//sealint:hotpath
func toDecimal(q int, c uint64) (uint64, int) {
	out := c & 1 // an odd significand's interval excludes its ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // the interval below a power of two is half as wide
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10g[k-kMin]
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)
	s := vb >> 2
	if s >= 10 {
		// One digit fewer: at most one of the multiples of ten around s
		// lies in the interval.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both lie in the interval: the closer one, the even one on a tie.
	if mid := (s + t) << 1; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns cp × g / 2^127 with g = g1·2^63 + g0, rounded to odd:
// the floor, its lowest bit set when the discarded bits are not all zero.
//
//sealint:hotpath
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// digitCount is the number of decimal digits of m > 0.
//
//sealint:hotpath
func digitCount(m uint64) int {
	n := bits.Len64(m) * 1233 >> 12 // floor(log10(m)) or one more
	if m >= pow10u[n] {
		n++
	}
	return n
}

// putDigits writes the decimal digits of m into buf so that they end just
// before buf[end]: eight at a time in 32-bit arithmetic, then two at a time.
//
//sealint:hotpath
func putDigits(buf *[32]byte, end int, m uint64) {
	for m >= 1e8 {
		q := m / 1e8
		put8(buf[end-8:end], uint32(m-q*1e8))
		end -= 8
		m = q
	}
	u := uint32(m)
	for u >= 100 {
		q := u / 100
		end -= 2
		put2(buf[end:end+2], u-100*q)
		u = q
	}
	if u >= 10 {
		put2(buf[end-2:end], u)
	} else {
		buf[end-1] = byte('0' + u)
	}
}

// put8 writes u < 1e8 as exactly eight digits, leading zeros included.
//
//sealint:hotpath
func put8(dst []byte, u uint32) {
	hi, lo := u/1e4, u%1e4
	put2(dst[0:2], hi/100)
	put2(dst[2:4], hi%100)
	put2(dst[4:6], lo/100)
	put2(dst[6:8], lo%100)
}

// digitPairs holds the two-digit strings of 0..99 in order.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" + "20212223242526272829" + "30313233343536373839" +
	"40414243444546474849" + "50515253545556575859" + "60616263646566676869" +
	"70717273747576777879" + "80818283848586878889" + "90919293949596979899"

// put2 writes u < 100 as exactly two digits.
//
//sealint:hotpath
func put2(dst []byte, u uint32) {
	dst[0], dst[1] = digitPairs[2*u], digitPairs[2*u+1]
}
