package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// ftoa_test.go — appendFloat against its reference, json.Marshal, byte for
// byte: over random bit patterns and over the values where a shortest
// formatter goes wrong (interval ends, exact ties, the irregular interval
// below a power of two, subnormals, json's form thresholds).

// checkFloats fails t unless appendFloat writes json.Marshal's bytes for
// every value of fs. It marshals the whole slice at once and compares
// value by value only to name a mismatch.
func checkFloats(t *testing.T, fs []float64) {
	t.Helper()
	want, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := appendFloats(nil, fs)
	if ok && bytes.Equal(got, want) {
		return
	}
	for _, f := range fs {
		w, _ := json.Marshal(f)
		if g, ok := appendFloat(nil, f); !ok || !bytes.Equal(g, w) {
			t.Fatalf("appendFloat(%v, bits %#016x) = %q, %v; json.Marshal %q", f, math.Float64bits(f), g, ok, w)
		}
	}
	t.Fatal("appendFloats differs from json.Marshal, though every value matches alone")
}

// withNeighbours returns fs with each value's finite ±1-ulp neighbours
// and all their negations.
func withNeighbours(fs ...float64) []float64 {
	out := make([]float64, 0, 6*len(fs))
	for _, f := range fs {
		for _, g := range []float64{math.Nextafter(f, 0), f, math.Nextafter(f, math.Inf(1))} {
			if !math.IsInf(g, 0) {
				out = append(out, g, -g)
			}
		}
	}
	return out
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	t.Run("random-bits", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(26, 1))
		fs := make([]float64, 0, 1<<16)
		for n := 0; n < 1<<20; {
			f := math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			fs = append(fs, f)
			if n++; len(fs) == cap(fs) {
				checkFloats(t, fs)
				fs = fs[:0]
			}
		}
	})
	t.Run("powers-of-ten", func(t *testing.T) {
		var fs []float64
		for e := -323; e <= 308; e++ {
			f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, withNeighbours(f)...)
		}
		checkFloats(t, fs)
	})
	t.Run("powers-of-two", func(t *testing.T) {
		var fs []float64
		for e := -1074; e <= 1023; e++ {
			fs = append(fs, withNeighbours(math.Ldexp(1, e))...)
		}
		checkFloats(t, fs)
	})
	t.Run("thresholds", func(t *testing.T) {
		var fs []float64
		for _, f := range []float64{1e-6, 1e21} {
			lo, hi := f, f
			for i := 0; i < 4; i++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
			for g := lo; g <= hi; g = math.Nextafter(g, math.Inf(1)) {
				fs = append(fs, g, -g)
			}
		}
		checkFloats(t, fs)
	})
	t.Run("integers-near-2^53", func(t *testing.T) {
		var fs []float64
		for i := int64(-4096); i <= 4096; i++ {
			fs = append(fs, float64(1<<53+i), float64(-(1<<53)+i))
		}
		checkFloats(t, fs)
	})
	t.Run("extremes", func(t *testing.T) {
		fs := withNeighbours(math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0.1, 1, 1.5, 0.3)
		for u := uint64(1); u <= 1<<12; u++ { // the smallest subnormals
			fs = append(fs, math.Float64frombits(u))
		}
		checkFloats(t, append(fs, 0, math.Copysign(0, -1)))
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-6, 1e21, 187.99774699999998, 5e-324,
		math.MaxFloat64, 0x1p-1022, 9007199254740993, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		got, ok := appendFloat(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if ok {
				t.Fatalf("appendFloat(%v) = %q, want a decline", v, got)
			}
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v, bits %#016x) = %q, %v; json.Marshal %q", v, u, got, ok, want)
		}
	})
}
