package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// testWorld bundles a small terrain, POIs, the exact engine and the exact
// pairwise distances shared by the oracle tests.
type testWorld struct {
	mesh  *terrain.Mesh
	pois  []terrain.SurfacePoint
	eng   *geodesic.Exact
	exact [][]float64
}

func newTestWorld(t *testing.T, nx int, npoi int, seed int64) *testWorld {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: nx, NY: nx, CellDX: 10, Amp: 25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, npoi, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	w := &testWorld{mesh: m, pois: pois, eng: geodesic.NewExact(m)}
	w.exact = make([][]float64, len(pois))
	for i := range pois {
		w.exact[i] = w.eng.DistancesTo(pois[i], pois, geodesic.Stop{CoverTargets: true})
	}
	return w
}

func (w *testWorld) build(t *testing.T, opt Options) *Oracle {
	t.Helper()
	o, err := Build(w.eng, w.pois, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return o
}

func TestBuildRejectsBadOptions(t *testing.T) {
	w := newTestWorld(t, 9, 8, 1)
	if _, err := Build(w.eng, w.pois, Options{Epsilon: 0}); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := Build(w.eng, nil, Options{Epsilon: 0.1}); err == nil {
		t.Error("expected error for empty POI set")
	}
}

func TestOracleInvariants(t *testing.T) {
	w := newTestWorld(t, 13, 30, 2)
	for _, sel := range []Selection{SelectRandom, SelectGreedy} {
		o := w.build(t, Options{Epsilon: 0.25, Selection: sel, Seed: 7})
		if err := o.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", sel, err)
		}
		if o.Height() <= 0 || o.Height() >= 64 {
			t.Errorf("%v: height %d implausible", sel, o.Height())
		}
		if o.BuildStats().ResolverFallbacks != 0 {
			t.Errorf("%v: %d resolver fallbacks (Lemma 4 violated?)", sel, o.BuildStats().ResolverFallbacks)
		}
	}
}

// The headline guarantee: every query is within ε of the exact geodesic
// distance, and the efficient query agrees with the naive one.
func TestOracleErrorBound(t *testing.T) {
	w := newTestWorld(t, 13, 30, 3)
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		o := w.build(t, Options{Epsilon: eps, Seed: 11})
		maxErr := 0.0
		for s := range w.pois {
			for tt := range w.pois {
				got, err := o.Query(int32(s), int32(tt))
				if err != nil {
					t.Fatalf("eps=%g Query(%d,%d): %v", eps, s, tt, err)
				}
				naive, err := o.QueryNaive(int32(s), int32(tt))
				if err != nil {
					t.Fatalf("eps=%g QueryNaive(%d,%d): %v", eps, s, tt, err)
				}
				if got != naive {
					t.Fatalf("eps=%g (%d,%d): efficient %v != naive %v", eps, s, tt, got, naive)
				}
				want := w.exact[s][tt]
				if s == tt {
					if got != 0 {
						t.Fatalf("self distance (%d) = %v", s, got)
					}
					continue
				}
				re := math.Abs(got-want) / want
				if re > eps*(1+1e-9) {
					t.Fatalf("eps=%g (%d,%d): got %v want %v relerr %v", eps, s, tt, got, want, re)
				}
				maxErr = math.Max(maxErr, re)
			}
		}
		t.Logf("eps=%g: max observed error %.4f (pairs=%d, h=%d)", eps, maxErr, o.NumPairs(), o.Height())
	}
}

func TestOracleSymmetricEnough(t *testing.T) {
	// The oracle's answer for (s,t) and (t,s) may come from different node
	// pairs, but both must satisfy the ε bound, so they differ by at most a
	// 2ε-ish factor.
	w := newTestWorld(t, 11, 20, 4)
	eps := 0.2
	o := w.build(t, Options{Epsilon: eps, Seed: 5})
	for s := range w.pois {
		for tt := s + 1; tt < len(w.pois); tt++ {
			a, _ := o.Query(int32(s), int32(tt))
			b, _ := o.Query(int32(tt), int32(s))
			if math.Abs(a-b) > 2*eps*w.exact[s][tt]+1e-9 {
				t.Fatalf("(%d,%d): %v vs %v exceeds 2eps window", s, tt, a, b)
			}
		}
	}
}

func TestNaiveConstructionMatches(t *testing.T) {
	w := newTestWorld(t, 11, 16, 5)
	opt := Options{Epsilon: 0.25, Seed: 9}
	fast := w.build(t, opt)
	opt.NaivePairDistances = true
	naive := w.build(t, opt)
	if fast.NumPairs() != naive.NumPairs() {
		t.Fatalf("pair counts differ: %d vs %d", fast.NumPairs(), naive.NumPairs())
	}
	for s := range w.pois {
		for tt := range w.pois {
			a, _ := fast.Query(int32(s), int32(tt))
			b, _ := naive.Query(int32(s), int32(tt))
			if math.Abs(a-b) > 1e-6*(1+a) {
				t.Fatalf("(%d,%d): efficient construction %v vs naive %v", s, tt, a, b)
			}
		}
	}
	// The efficient construction must not use more SSAD calls than pairs
	// considered + tree nodes (it calls SSAD once per tree node, not per
	// pair).
	if fast.BuildStats().SSADCalls > naive.BuildStats().SSADCalls {
		t.Errorf("efficient used %d SSADs, naive %d", fast.BuildStats().SSADCalls, naive.BuildStats().SSADCalls)
	}
}

func TestOracleSizeLinearInPOIs(t *testing.T) {
	// Space-efficiency: the oracle built over 3x the POIs should be roughly
	// 3x the size, not N-dependent.
	m, err := gen.Fractal(gen.FractalSpec{NX: 17, NY: 17, CellDX: 10, Amp: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	small, err := gen.UniformPOIs(m, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.UniformPOIs(m, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	oSmall, err := Build(eng, gen.Dedup(small, 1e-9), Options{Epsilon: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	oBig, err := Build(eng, gen.Dedup(big, 1e-9), Options{Epsilon: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(oBig.MemoryBytes()) / float64(oSmall.MemoryBytes())
	if ratio > 12 {
		t.Errorf("3x POIs grew the oracle %vx", ratio)
	}
}

func TestQueryIDValidation(t *testing.T) {
	w := newTestWorld(t, 9, 10, 9)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 1})
	if _, err := o.Query(-1, 0); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := o.Query(0, int32(len(w.pois))); err == nil {
		t.Error("out of range id accepted")
	}
	if _, err := o.QueryNaive(99, 0); err == nil {
		t.Error("naive accepted bad id")
	}
}

func TestSinglePOI(t *testing.T) {
	w := newTestWorld(t, 9, 1, 10)
	o := w.build(t, Options{Epsilon: 0.1, Seed: 2})
	d, err := o.Query(0, 0)
	if err != nil || d != 0 {
		t.Errorf("single POI self query = %v, %v", d, err)
	}
	if o.NumPairs() != 1 {
		t.Errorf("single POI pair count = %d", o.NumPairs())
	}
}

func TestTwoPOIs(t *testing.T) {
	// The paper's motivating extreme: with two POIs the oracle must stay
	// tiny regardless of terrain size.
	m, err := gen.Fractal(gen.FractalSpec{NX: 21, NY: 21, CellDX: 10, Amp: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	pois, err := gen.UniformPOIs(m, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(eng, pois, Options{Epsilon: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.DistancesTo(pois[0], []terrain.SurfacePoint{pois[1]}, geodesic.Stop{CoverTargets: true})[0]
	got, err := o.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("two-POI distance %v, exact %v", got, want)
	}
	if o.MemoryBytes() > 4096 {
		t.Errorf("two-POI oracle occupies %d bytes", o.MemoryBytes())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w := newTestWorld(t, 11, 24, 14)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 21})
	o2, ok := loadIndex(t, encodeIndex(t, o)).(*Oracle)
	if !ok {
		t.Fatal("se container did not load as *Oracle")
	}
	if o2.Epsilon() != o.Epsilon() || o2.NumPOIs() != o.NumPOIs() ||
		o2.Height() != o.Height() || o2.NumPairs() != o.NumPairs() {
		t.Fatal("decoded oracle metadata differs")
	}
	for s := range w.pois {
		for tt := range w.pois {
			a, err1 := o.Query(int32(s), int32(tt))
			b, err2 := o2.Query(int32(s), int32(tt))
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("(%d,%d): %v/%v vs %v/%v", s, tt, a, err1, b, err2)
			}
		}
	}
	if err := o2.CheckInvariants(); err != nil {
		t.Errorf("decoded oracle invariants: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not an oracle")), LoadOptions{}); err == nil {
		t.Error("garbage decoded")
	}
	if _, _, err := Load(bytes.NewReader(nil), LoadOptions{}); err == nil {
		t.Error("empty decoded")
	}
	// Corrupt a valid container's magic.
	w := newTestWorld(t, 9, 6, 15)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 1})
	data := encodeIndex(t, o)
	data[0] ^= 0xff
	if _, _, err := Load(bytes.NewReader(data), LoadOptions{}); err == nil {
		t.Error("corrupt magic decoded")
	}
	data[0] ^= 0xff // restore
	// Corrupt the body's tree height (offset 40: the 12-byte envelope
	// header, the 12-byte oracle section header, then eps and npoi precede
	// it) and re-seal the footer CRC, so the body decoder sees the value:
	// the O(npoi·height) path slab makes decoding itself pay for the
	// height, so an implausible value must be rejected, not allocated.
	for _, h := range []uint64{1 << 60, 1 << 33, ^uint64(0)} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[40:], h)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
		_, _, err := Load(bytes.NewReader(bad), LoadOptions{})
		if err == nil || !strings.Contains(err.Error(), "tree height") {
			t.Errorf("height %#x: %v, want the tree-height bound", h, err)
		}
	}
}

func TestGreedySelectionBuildsEquivalentOracle(t *testing.T) {
	w := newTestWorld(t, 11, 25, 16)
	eps := 0.25
	g := w.build(t, Options{Epsilon: eps, Selection: SelectGreedy, Seed: 17})
	for s := range w.pois {
		for tt := range w.pois {
			if s == tt {
				continue
			}
			got, err := g.Query(int32(s), int32(tt))
			if err != nil {
				t.Fatalf("greedy Query(%d,%d): %v", s, tt, err)
			}
			want := w.exact[s][tt]
			if math.Abs(got-want)/want > eps*(1+1e-9) {
				t.Fatalf("greedy (%d,%d): got %v want %v", s, tt, got, want)
			}
		}
	}
}

// Clustered POIs exercise the greedy strategy's dense-cell logic.
func TestClusteredPOIsGreedy(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 13, NY: 13, CellDX: 10, Amp: 15, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.ClusteredPOIs(m, 40, 3, 0.04, 19)
	if err != nil {
		t.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	eng := geodesic.NewExact(m)
	o, err := Build(eng, pois, Options{Epsilon: 0.25, Selection: SelectGreedy, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
