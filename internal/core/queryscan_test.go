package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// queryscan_test.go — the deepest-first §3.4 scan of queryPair: parity with
// the full A_s × A_t product (the SE-Naive baseline) on built and loaded
// oracles, the pair-shape invariant its lowest-common-ancestor stop relies
// on, and corrupt path rows that must error on every query surface.

// scanFixture is one generated terrain, POI set and build configuration.
type scanFixture struct {
	nx, npoi     int
	cellDX, amp  float64
	tseed, pseed int64
	eps          float64
	sel          Selection
}

func (fx scanFixture) String() string {
	return fmt.Sprintf("%dx%d/%dpoi/eps%g/sel%d", fx.nx, fx.nx, fx.npoi, fx.eps, fx.sel)
}

func (fx scanFixture) build(t *testing.T) *Oracle {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: fx.nx, NY: fx.nx, CellDX: fx.cellDX, Amp: fx.amp, Seed: fx.tseed})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, fx.npoi, fx.pseed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(geodesic.NewExact(m), pois, Options{Epsilon: fx.eps, Selection: fx.sel, Seed: 1})
	if err != nil {
		t.Fatalf("%v: Build: %v", fx, err)
	}
	return o
}

// scanEngines returns the query engine of a built oracle and of its eager
// se load and its in-place flat load (the path a memory-mapped file takes).
func scanEngines(t *testing.T, o *Oracle) map[string]*FlatOracle {
	t.Helper()
	var se, flat bytes.Buffer
	if err := o.EncodeTo(&se); err != nil {
		t.Fatal(err)
	}
	if err := o.EncodeFlatTo(&flat); err != nil {
		t.Fatal(err)
	}
	eager, _, err := LoadBytesOpts(se.Bytes(), nil, LoadOptions{})
	if err != nil {
		t.Fatalf("se load: %v", err)
	}
	inPlace, _, err := LoadBytesOpts(flat.Bytes(), nil, LoadOptions{})
	if err != nil {
		t.Fatalf("flat load: %v", err)
	}
	return map[string]*FlatOracle{"built": o.flat, "se-eager": eager.(*Oracle).flat, "flat-in-place": inPlace.(*FlatOracle)}
}

// onChain reports whether node n lies on POI p's leaf-to-root chain.
func onChain(f *FlatOracle, p int32, n uint32) bool {
	return binary.LittleEndian.Uint32(f.pathRow(p)[f.nodeLayer(n)*4:]) == n
}

// matchKind names where queryPair found its pair.
func matchKind(f *FlatOracle, na, nb uint32) string {
	la, lb := f.nodeLayer(na), f.nodeLayer(nb)
	switch {
	case la != lb:
		return "cross-layer"
	case la == f.height:
		return "leaf"
	default:
		return "internal same-layer"
	}
}

// TestQueryScanMatchesProduct checks the deepest-first scan against the
// full product on every ordered pair: same distance bits as QueryNaive, a
// matched pair on both endpoints' chains, exactly one stored match, and
// the same pair and bits in every load mode. Every branch of the scan must
// run: leaf, internal same-layer and cross-layer matches all occur.
func TestQueryScanMatchesProduct(t *testing.T) {
	var fixtures []scanFixture
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		for _, sel := range []Selection{SelectRandom, SelectGreedy} {
			fixtures = append(fixtures, scanFixture{nx: 11, npoi: 40, cellDX: 30, amp: 220, tseed: 31, pseed: 37, eps: eps, sel: sel})
		}
	}
	// bulk-mix's oracle: the perfbench workload's terrain and POIs at seed 1.
	// The only fixture here with internal same-layer matches.
	fixtures = append(fixtures, scanFixture{nx: 17, npoi: 150, cellDX: 30, amp: 220, tseed: 1, pseed: 1 + 7919, eps: 0.25})

	kinds := map[string]int{}
	for _, fx := range fixtures {
		o := fx.build(t)
		engines := scanEngines(t, o)
		n := int32(o.NumPOIs())
		type match struct {
			bits   uint64
			na, nb uint32
		}
		want := make([]match, int(n)*int(n))
		for _, name := range []string{"built", "se-eager", "flat-in-place"} {
			f := engines[name]
			for s := int32(0); s < n; s++ {
				for u := int32(0); u < n; u++ {
					got, err := f.Query(s, u)
					if err != nil {
						t.Fatalf("%v %s: Query(%d,%d): %v", fx, name, s, u, err)
					}
					naive, err := f.QueryNaive(s, u)
					if err != nil {
						t.Fatalf("%v %s: QueryNaive(%d,%d): %v", fx, name, s, u, err)
					}
					if math.Float64bits(got) != math.Float64bits(naive) {
						t.Fatalf("%v %s: Query(%d,%d) = %v, QueryNaive %v", fx, name, s, u, got, naive)
					}
					if _, cnt, err := f.productScan(s, u, false); err != nil || cnt != 1 {
						t.Fatalf("%v %s: (%d,%d) matched by %d stored pairs (err %v), want 1", fx, name, s, u, cnt, err)
					}
					if s == u {
						continue
					}
					d, na, nb, err := f.queryPair(s, u)
					if err != nil {
						t.Fatalf("%v %s: queryPair(%d,%d): %v", fx, name, s, u, err)
					}
					if !onChain(f, s, na) || !onChain(f, u, nb) {
						t.Fatalf("%v %s: queryPair(%d,%d) matched (%d,%d), off the endpoints' chains", fx, name, s, u, na, nb)
					}
					m := match{math.Float64bits(d), na, nb}
					if m.bits != math.Float64bits(got) {
						t.Fatalf("%v %s: queryPair(%d,%d) distance %v, Query %v", fx, name, s, u, d, got)
					}
					i := int(s)*int(n) + int(u)
					if name == "built" {
						want[i] = m
						kinds[matchKind(f, na, nb)]++
					} else if m != want[i] {
						t.Fatalf("%v %s: queryPair(%d,%d) = %+v, built %+v", fx, name, s, u, m, want[i])
					}
				}
			}
		}
	}
	for _, k := range []string{"leaf", "internal same-layer", "cross-layer"} {
		if kinds[k] == 0 {
			t.Errorf("no pair matched a %s node pair (%v): a branch of the scan never ran", k, kinds)
		}
	}
	t.Logf("matched node pairs by kind: %v", kinds)
}

// TestCheckInvariantsRejectsNestedPairs plants the stored pairs queryPair's
// lowest-common-ancestor stop assumes absent — a non-leaf node with itself,
// a node with its ancestor in either order — and expects both the built
// oracle's and a loaded flat container's CheckInvariants to reject each.
func TestCheckInvariantsRejectsNestedPairs(t *testing.T) {
	_, o, _ := flatPair(t, 9, 16, 9800)
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("unplanted oracle: %v", err)
	}
	ct := o.tree
	leaf := ct.leaf[0]
	parent := ct.nodes[leaf].parent
	if parent < 0 || parent == ct.root {
		t.Fatalf("fixture: POI 0's leaf parent %d is not an internal node", parent)
	}
	cases := []struct {
		name string
		a, b int32
		want string
	}{
		{"internal self pair", parent, parent, "with itself"},
		{"ancestor first", ct.root, leaf, "with its ancestor"},
		{"descendant first", leaf, parent, "with its ancestor"},
	}
	for _, tc := range cases {
		keys := append(append([]uint64(nil), o.keys...), packPair(tc.a, tc.b))
		// A distance far past every separation bound, so only the shape
		// check can object.
		dist := append(append([]float64(nil), o.dist...), 1e12)
		planted, err := newOracle(o.Epsilon(), ct, keys, dist, o.NumPOIs())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		planted.flat.pts = o.flat.pts
		if err := planted.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Oracle.CheckInvariants = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		var buf bytes.Buffer
		if err := planted.encodeFlatContainer(&buf, nil); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		idx, _, err := LoadBytesOpts(buf.Bytes(), nil, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		if err := idx.(*FlatOracle).CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FlatOracle.CheckInvariants = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestFlatCorruptPathRowErrorsOnEverySurface points one paths-row entry at a
// node id past nNodes, at the leaf layer and at a middle layer the scan must
// read, and expects Query, QueryBatch and QueryPath to return errors there.
func TestFlatCorruptPathRowErrorsOnEverySurface(t *testing.T) {
	_, o, f := flatPair(t, 11, 24, 9001)
	// A pair matched at an internal same-layer pair makes the scan read the
	// s row at every layer from the leaf up to the match.
	s, u, mid := int32(-1), int32(-1), -1
	n := int32(f.NumPOIs())
	for a := int32(0); a < n && mid < 0; a++ {
		for b := int32(0); b < n; b++ {
			if a == b {
				continue
			}
			_, na, nb, err := f.queryPair(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if matchKind(f, na, nb) == "internal same-layer" {
				s, u, mid = a, b, f.nodeLayer(na)
				break
			}
		}
	}
	if mid < 0 {
		t.Fatal("fixture: no pair matches at an internal same-layer pair")
	}
	var buf bytes.Buffer
	if err := o.EncodeFlatTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, layer := range []int{f.height, mid} {
		blob := reflatten(t, buf.Bytes(), func(body []byte) {
			off := int(binary.LittleEndian.Uint64(body[flatDirOff+flatDirEntryLen+8:])) // paths slab
			binary.LittleEndian.PutUint32(body[off+(int(s)*f.layerN+layer)*4:], 0xFFFFFFF0)
		})
		idx, _, err := LoadBytesOpts(blob, nil, LoadOptions{})
		if err != nil {
			t.Fatalf("layer %d: LoadBytesOpts: %v", layer, err)
		}
		g := idx.(*FlatOracle)
		_, qerr := g.Query(s, u)
		_, berr := g.QueryBatch([][2]int32{{s, u}}, nil)
		_, _, perr := g.QueryPath(s, u)
		for surface, err := range map[string]error{"Query": qerr, "QueryBatch": berr, "QueryPath": perr} {
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("layer %d: %s(%d,%d) = %v, want a corruption error", layer, surface, s, u, err)
			}
		}
	}
}
