package core

import (
	"encoding/binary"
	"testing"
)

// The query fast path must not touch the allocator: pathRow indexes the
// precomputed slab and lookup probes the compact hash, so a successful Query
// is allocation-free. Enforced here rather than only observed in benchmarks —
// and after a QueryPath has run, so the path machinery (segment cache, lazy
// engine) provably never leaks allocations into the distance path.
func TestQueryZeroAllocs(t *testing.T) {
	w := newTestWorld(t, 13, 30, 71)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 73})
	n := int32(o.NumPOIs())
	if _, _, err := o.QueryPath(0, n-1); err != nil {
		t.Fatal(err)
	}
	var s, q int32
	avg := testing.AllocsPerRun(500, func() {
		if _, err := o.Query(s, q); err != nil {
			t.Fatal(err)
		}
		s = (s + 1) % n
		q = (q + 7) % n
	})
	if avg != 0 {
		t.Errorf("Query allocates %v times per call, want 0", avg)
	}
	avg = testing.AllocsPerRun(500, func() {
		if _, err := o.QueryNaive(s, q); err != nil {
			t.Fatal(err)
		}
		s = (s + 3) % n
		q = (q + 5) % n
	})
	if avg != 0 {
		t.Errorf("QueryNaive allocates %v times per call, want 0", avg)
	}
}

// A routed id query on a resident hierarchical index is the multi serving
// hot path: routing decides same-tile or portal stitch on the stack, so a
// warmed same-tile pair and a portal pair are both allocation-free.
func TestRoutedQueryZeroAllocs(t *testing.T) {
	w := newTestWorld(t, 11, 30, 43)
	sh := buildLOD(t, w, 4, lodOpt(0.2, 44))
	pairs := map[routeKind][2]int32{}
	n := int32(sh.NumGlobalIDs())
	for s := int32(0); s < n; s++ {
		for q := s + 1; q < n; q++ {
			var r route
			if err := sh.route(&r, s, q, nil); err != nil {
				t.Fatal(err)
			}
			if _, seen := pairs[r.kind]; !seen {
				pairs[r.kind] = [2]int32{s, q}
			}
		}
	}
	for _, tc := range []struct {
		name string
		kind routeKind
	}{{"same-tile", routeMember}, {"portal", routePortal}} {
		p, ok := pairs[tc.kind]
		if !ok {
			t.Fatalf("no %s pair among %d global ids", tc.name, n)
		}
		if _, err := sh.Query(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(500, func() {
			if _, err := sh.Query(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s Query(%d,%d) allocates %v times per call, want 0", tc.name, p[0], p[1], avg)
		}
	}
}

// QueryBatch with a preallocated destination is the bulk serving surface;
// it must stay allocation-free end to end.
func TestQueryBatchZeroAllocs(t *testing.T) {
	w := newTestWorld(t, 13, 30, 79)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 83})
	n := int32(o.NumPOIs())
	pairs := make([][2]int32, 256)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i) % n, int32(i*13+5) % n}
	}
	dst := make([]float64, len(pairs))
	avg := testing.AllocsPerRun(100, func() {
		out, err := o.QueryBatch(pairs, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(pairs) {
			t.Fatalf("batch returned %d results for %d pairs", len(out), len(pairs))
		}
	})
	if avg != 0 {
		t.Errorf("QueryBatch allocates %v times per call, want 0", avg)
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	w := newTestWorld(t, 11, 20, 89)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 97})
	n := int32(o.NumPOIs())
	var pairs [][2]int32
	for s := int32(0); s < n; s++ {
		for q := int32(0); q < n; q += 3 {
			pairs = append(pairs, [2]int32{s, q})
		}
	}
	// nil destination: QueryBatch allocates one for the caller.
	out, err := o.QueryBatch(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := o.Query(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("pair %v: batch %v, single %v", p, out[i], want)
		}
	}
	// An invalid pair surfaces as an error with the filled prefix.
	bad := [][2]int32{{0, 1}, {n, 0}}
	out, err = o.QueryBatch(bad, nil)
	if err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	if len(out) != 1 {
		t.Fatalf("error-path prefix has %d entries, want 1", len(out))
	}
}

// Self queries short-circuit: the well-separated pair set is not guaranteed
// to contain a same-leaf self pair, so (s,s) must be answered structurally.
func TestSelfQueryFastPath(t *testing.T) {
	w := newTestWorld(t, 11, 16, 101)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 103})
	for s := int32(0); s < int32(o.NumPOIs()); s++ {
		for _, q := range []func(int32, int32) (float64, error){o.Query, o.QueryNaive} {
			d, err := q(s, s)
			if err != nil || d != 0 {
				t.Fatalf("self query %d: %v, %v", s, d, err)
			}
		}
	}
}

// The engine's paths slab must agree with a parent-pointer walk — on a
// freshly built oracle and on one rebuilt by Load, whose slab is laid out
// again from the deserialized tree.
func TestPathSlabMatchesParentWalk(t *testing.T) {
	w := newTestWorld(t, 13, 28, 107)
	built := w.build(t, Options{Epsilon: 0.2, Seed: 109})
	decoded, ok := loadIndex(t, encodeIndex(t, built)).(*Oracle)
	if !ok {
		t.Fatal("se container did not load as *Oracle")
	}
	for name, o := range map[string]*Oracle{"built": built, "decoded": decoded} {
		layerN := o.Height() + 1
		for p := int32(0); p < int32(o.NumPOIs()); p++ {
			// Independent reference: walk leaf-to-root parent pointers.
			want := make([]uint32, layerN)
			for i := range want {
				want[i] = flatNone32
			}
			for n := o.tree.leaf[p]; n >= 0; n = o.tree.nodes[n].parent {
				want[o.tree.nodes[n].layer] = uint32(n)
			}
			got := o.flat.pathRow(p)
			if len(got) != 4*layerN {
				t.Fatalf("%s POI %d: slab row has %d bytes, want %d", name, p, len(got), 4*layerN)
			}
			for i := range want {
				if g := binary.LittleEndian.Uint32(got[i*4:]); g != want[i] {
					t.Fatalf("%s POI %d layer %d: slab %d, walk %d", name, p, i, g, want[i])
				}
			}
		}
	}
}
