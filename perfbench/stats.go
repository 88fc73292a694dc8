package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durationsUs converts nanosecond samples to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// answerHash folds a sequence of float64 answers into one 64-bit FNV-1a
// digest of their bit patterns, so two answer sets compare bit for bit
// without keeping either around.
type answerHash struct{ h uint64 }

func newAnswerHash() answerHash {
	return answerHash{h: fnv.New64a().Sum64()}
}

func (a *answerHash) add(f float64) {
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		a.h ^= bits & 0xff
		a.h *= 1099511628211
		bits >>= 8
	}
}

func (a *answerHash) sum() uint64 { return a.h }
