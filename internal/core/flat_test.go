package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// flat_test.go — the flat-vs-decoded parity suite: a FlatOracle must answer
// every query surface bit-for-bit like the decoded *Oracle it was converted
// from, round-trip byte-identically through encode → load, reject structural
// damage at load, and degrade member-wise inside a multi container.

// flatPair builds a decoded oracle and its flat conversion over one world.
func flatPair(t *testing.T, nx, npoi int, seed int64) (*testWorld, *Oracle, *FlatOracle) {
	t.Helper()
	w := newTestWorld(t, nx, npoi, seed)
	o := w.build(t, Options{Epsilon: 0.25, Seed: seed + 1})
	idx, err := ConvertFlat(o)
	if err != nil {
		t.Fatalf("ConvertFlat: %v", err)
	}
	f, ok := idx.(*FlatOracle)
	if !ok {
		t.Fatalf("ConvertFlat returned %T, want *FlatOracle", idx)
	}
	return w, o, f
}

func TestFlatQueryParity(t *testing.T) {
	_, o, f := flatPair(t, 11, 24, 9001)
	n := int32(o.npoi)
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			want, err1 := o.Query(s, u)
			got, err2 := f.Query(s, u)
			if err1 != nil || err2 != nil {
				t.Fatalf("Query(%d,%d): decoded err %v, flat err %v", s, u, err1, err2)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("Query(%d,%d): decoded %v, flat %v (not byte-identical)", s, u, want, got)
			}
		}
	}
	if _, err := f.Query(-1, 0); err == nil {
		t.Error("flat Query accepted a negative id")
	}
	if _, err := f.Query(0, n); err == nil {
		t.Error("flat Query accepted an out-of-range id")
	}
}

func TestFlatBatchAndMatrixParity(t *testing.T) {
	_, o, f := flatPair(t, 9, 16, 9100)
	n := int32(o.npoi)
	var pairs [][2]int32
	for s := int32(0); s < n; s++ {
		pairs = append(pairs, [2]int32{s, (s * 7) % n}, [2]int32{(s + 3) % n, s})
	}
	want, err := o.QueryBatch(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.QueryBatch(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("batch pair %d: decoded %v, flat %v", i, want[i], got[i])
		}
	}

	sources := []int32{0, 1, 2, n - 1}
	targets := []int32{3, 0, n - 2}
	wm, err := o.QueryMatrix(sources, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := f.QueryMatrix(sources, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wm {
		if math.Float64bits(wm[i]) != math.Float64bits(gm[i]) {
			t.Fatalf("matrix cell %d: decoded %v, flat %v", i, wm[i], gm[i])
		}
	}
}

func TestFlatPathParity(t *testing.T) {
	_, o, f := flatPair(t, 9, 14, 9200)
	n := int32(o.npoi)
	for _, pair := range [][2]int32{{0, n - 1}, {1, n / 2}, {n - 1, 0}, {2, 2}} {
		wp, wl, err1 := o.QueryPath(pair[0], pair[1])
		gp, gl, err2 := f.QueryPath(pair[0], pair[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("QueryPath(%d,%d): decoded err %v, flat err %v", pair[0], pair[1], err1, err2)
		}
		if math.Float64bits(wl) != math.Float64bits(gl) {
			t.Fatalf("QueryPath(%d,%d): decoded length %v, flat %v", pair[0], pair[1], wl, gl)
		}
		if len(wp) != len(gp) {
			t.Fatalf("QueryPath(%d,%d): decoded %d vertices, flat %d", pair[0], pair[1], len(wp), len(gp))
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("QueryPath(%d,%d): vertex %d differs: %v vs %v", pair[0], pair[1], i, wp[i], gp[i])
			}
		}
	}
}

func TestFlatNearestParity(t *testing.T) {
	w, o, f := flatPair(t, 9, 16, 9300)
	probes := [][2]float64{{0, 0}, {35, 20}, {12.5, 60}, {-5, -5}}
	for _, pr := range probes {
		wid, wat, wd, err1 := o.Nearest(pr[0], pr[1])
		gid, gat, gd, err2 := f.Nearest(pr[0], pr[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("Nearest(%v): decoded err %v, flat err %v", pr, err1, err2)
		}
		if wid != gid || wat != gat || math.Float64bits(wd) != math.Float64bits(gd) {
			t.Fatalf("Nearest(%v): decoded (%d,%v,%v), flat (%d,%v,%v)", pr, wid, wat, wd, gid, gat, gd)
		}
		wk, err1 := o.NearestK(pr[0], pr[1], 5)
		gk, err2 := f.NearestK(pr[0], pr[1], 5)
		if err1 != nil || err2 != nil {
			t.Fatalf("NearestK(%v): decoded err %v, flat err %v", pr, err1, err2)
		}
		if len(wk) != len(gk) {
			t.Fatalf("NearestK(%v): decoded %d results, flat %d", pr, len(wk), len(gk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Fatalf("NearestK(%v)[%d]: decoded %+v, flat %+v", pr, i, wk[i], gk[i])
			}
		}
	}
	// Reachability rides the same point table.
	d := w.exact[0][len(w.pois)-1]
	wr, err1 := o.Reachable(0, d)
	gr, err2 := f.Reachable(0, d)
	if err1 != nil || err2 != nil {
		t.Fatalf("Reachable: decoded err %v, flat err %v", err1, err2)
	}
	if len(wr) != len(gr) {
		t.Fatalf("Reachable: decoded %d hits, flat %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("Reachable[%d]: decoded %+v, flat %+v", i, wr[i], gr[i])
		}
	}
}

func TestFlatStatsAndInvariants(t *testing.T) {
	_, o, f := flatPair(t, 9, 16, 9400)
	os, fs := o.Stats(), f.Stats()
	if fs.Kind != KindFlat {
		t.Errorf("flat Stats kind %s, want flat", fs.Kind)
	}
	if fs.Points != os.Points || fs.Height != os.Height || fs.Pairs != os.Pairs || fs.Epsilon != os.Epsilon {
		t.Errorf("flat Stats %+v disagrees with decoded %+v", fs, os)
	}
	if fs.MappedBytes <= 0 || fs.MappedBytes != f.MappedBytes() {
		t.Errorf("flat MappedBytes %d (stats %d), want the body size", f.MappedBytes(), fs.MappedBytes)
	}
	if fs.MemoryBytes >= os.MemoryBytes {
		t.Errorf("flat heap MemoryBytes %d not below decoded %d", fs.MemoryBytes, os.MemoryBytes)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
	// The cold-slab decode grows the heap side.
	before := f.MemoryBytes()
	if _, err := f.Points(); err != nil {
		t.Fatal(err)
	}
	if after := f.MemoryBytes(); after <= before {
		t.Errorf("MemoryBytes %d → %d after point decode; want growth", before, after)
	}
}

func TestFlatEncodeLoadRoundTrip(t *testing.T) {
	_, o, f := flatPair(t, 9, 16, 9500)

	// sebuild's write path: EncodeFlatTo on the decoded oracle.
	var direct bytes.Buffer
	if err := o.EncodeFlatTo(&direct); err != nil {
		t.Fatalf("EncodeFlatTo: %v", err)
	}
	// The converted oracle re-encodes to the identical container.
	var viaConvert bytes.Buffer
	if err := f.EncodeTo(&viaConvert); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	if !bytes.Equal(direct.Bytes(), viaConvert.Bytes()) {
		t.Fatal("EncodeFlatTo and converted EncodeTo produced different containers")
	}

	// Stream load (full envelope CRC) and byte load (structural only) agree.
	for _, load := range []struct {
		name string
		idx  func() (DistanceIndex, []Quarantined, error)
	}{
		{"Load", func() (DistanceIndex, []Quarantined, error) {
			return Load(bytes.NewReader(direct.Bytes()), LoadOptions{})
		}},
		{"LoadBytesOpts", func() (DistanceIndex, []Quarantined, error) {
			return LoadBytesOpts(direct.Bytes(), nil, LoadOptions{})
		}},
	} {
		idx, _, err := load.idx()
		if err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		lf, ok := idx.(*FlatOracle)
		if !ok {
			t.Fatalf("%s returned %T, want *FlatOracle", load.name, idx)
		}
		d1, err := lf.Query(0, int32(o.npoi-1))
		if err != nil {
			t.Fatalf("%s Query: %v", load.name, err)
		}
		d2, _ := o.Query(0, int32(o.npoi-1))
		if math.Float64bits(d1) != math.Float64bits(d2) {
			t.Fatalf("%s: loaded flat answers %v, decoded %v", load.name, d1, d2)
		}
		var again bytes.Buffer
		if err := lf.EncodeTo(&again); err != nil {
			t.Fatalf("%s re-encode: %v", load.name, err)
		}
		if !bytes.Equal(direct.Bytes(), again.Bytes()) {
			t.Fatalf("%s: load → re-encode not byte-identical", load.name)
		}
	}
}

// reflatten patches bytes inside the flat body of an encoded flat container
// and recomputes the header CRC, so structural-validation tests exercise
// the checks behind it (the body starts at envelope offset 24).
func reflatten(t *testing.T, blob []byte, mutate func(body []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	body := out[24 : len(out)-4]
	mutate(body)
	nSlabs := int(binary.LittleEndian.Uint32(body[flatHeaderOff+40:]))
	dirEnd := flatDirOff + nSlabs*flatDirEntryLen
	binary.LittleEndian.PutUint32(body[8:], crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]))
	return out
}

func TestFlatLoadBytesRejectsStructuralDamage(t *testing.T) {
	_, o, _ := flatPair(t, 9, 12, 9600)
	var buf bytes.Buffer
	if err := o.EncodeFlatTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, _, err := LoadBytesOpts(blob, nil, LoadOptions{}); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}

	cases := []struct {
		name   string
		damage func() []byte
		want   string
	}{
		{"header bit flip without re-CRC", func() []byte {
			out := append([]byte(nil), blob...)
			out[24+flatHeaderOff+8] ^= 0x01 // npoi
			return out
		}, "CRC mismatch"},
		{"misaligned slab offset", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				off := binary.LittleEndian.Uint64(ent[8:])
				binary.LittleEndian.PutUint64(ent[8:], off+1)
			})
		}, "misaligned"},
		{"overlapping slabs", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				first := binary.LittleEndian.Uint64(body[flatDirOff+8:])
				second := body[flatDirOff+flatDirEntryLen:]
				binary.LittleEndian.PutUint64(second[8:], first)
			})
		}, "overlaps"},
		{"slab beyond the body", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				binary.LittleEndian.PutUint64(ent[8:], uint64(len(body)+8)&^7)
			})
		}, "exceeds"},
		{"unknown slab id", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				binary.LittleEndian.PutUint32(body[flatDirOff:], 99)
			})
		}, "unknown flat slab"},
		{"wrong slab length", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				length := binary.LittleEndian.Uint64(ent[16:])
				binary.LittleEndian.PutUint64(ent[16:], length+8)
			})
		}, "header implies"},
		{"hash shape mismatch", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				n := binary.LittleEndian.Uint32(body[flatHeaderOff+28:])
				binary.LittleEndian.PutUint32(body[flatHeaderOff+28:], n+1)
			})
		}, "hash shape"},
		{"truncated image", func() []byte {
			out := append([]byte(nil), blob[:24+40]...)
			return out
		}, "exceeds"},
	}
	for _, tc := range cases {
		if _, _, err := LoadBytesOpts(tc.damage(), nil, LoadOptions{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFlatCorruptSlabContentErrorsNotFaults(t *testing.T) {
	_, o, _ := flatPair(t, 9, 12, 9700)
	var buf bytes.Buffer
	if err := o.EncodeFlatTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Point a paths-slab entry at a node id far past nNodes: slab content is
	// not CRC-covered on the byte path, so the damage must surface as a
	// query error, never a fault.
	blob := reflatten(t, buf.Bytes(), func(body []byte) {
		off := binary.LittleEndian.Uint64(body[flatDirOff+flatDirEntryLen+8:]) // paths slab
		binary.LittleEndian.PutUint32(body[off:], 0xFFFFFFF0)
	})
	idx, _, err := LoadBytesOpts(blob, nil, LoadOptions{})
	if err != nil {
		t.Fatalf("LoadBytesOpts: %v", err)
	}
	f := idx.(*FlatOracle)
	n := int32(f.NumPOIs())
	sawErr := false
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if _, err := f.Query(s, u); err != nil {
				sawErr = true
				if !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("Query(%d,%d): error %q does not name corruption", s, u, err)
				}
			}
		}
	}
	if !sawErr {
		t.Error("no query touched the corrupted path entry")
	}
}

func TestFlatMultiConvertAndDegraded(t *testing.T) {
	w := newTestWorld(t, 9, 16, 9800)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 9801})
	conv, err := ConvertFlat(sh)
	if err != nil {
		t.Fatalf("ConvertFlat(multi): %v", err)
	}
	fsh, ok := conv.(*ShardedIndex)
	if !ok {
		t.Fatalf("ConvertFlat returned %T, want *ShardedIndex", conv)
	}
	if fsh.MappedBytes() <= 0 {
		t.Error("converted multi reports no mapped bytes")
	}
	var buf bytes.Buffer
	if err := fsh.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	blob := buf.Bytes()

	idx, _, err := LoadBytesOpts(blob, nil, LoadOptions{})
	if err != nil {
		t.Fatalf("LoadBytesOpts: %v", err)
	}
	lsh := idx.(*ShardedIndex)
	if lsh.NumMembers() != sh.NumMembers() {
		t.Fatalf("loaded %d members, want %d", lsh.NumMembers(), sh.NumMembers())
	}
	// Members answer (query and path, via the adopted shared mesh)
	// bit-identically to the decoded originals.
	for i, m := range lsh.Members() {
		om := sh.Members()[i]
		fm, ok := m.Index.(*FlatOracle)
		if !ok {
			t.Fatalf("member %q loaded as %T, want *FlatOracle", m.Name, m.Index)
		}
		n := int32(fm.NumPOIs())
		if n < 2 {
			continue
		}
		want, err1 := om.Index.Query(0, n-1)
		got, err2 := fm.Query(0, n-1)
		if err1 != nil || err2 != nil || math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("member %q: decoded (%v,%v), flat (%v,%v)", m.Name, want, err1, got, err2)
		}
		wp, wl, err1 := om.Index.(PathIndex).QueryPath(0, n-1)
		gp, gl, err2 := fm.QueryPath(0, n-1)
		if err1 != nil || err2 != nil || math.Float64bits(wl) != math.Float64bits(gl) || len(wp) != len(gp) {
			t.Fatalf("member %q path: decoded (%d pts, %v, %v), flat (%d pts, %v, %v)",
				m.Name, len(wp), wl, err1, len(gp), gl, err2)
		}
	}
	// Re-encode is byte-identical.
	var again bytes.Buffer
	if err := lsh.EncodeTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again.Bytes()) {
		t.Fatal("multi-of-flat load → re-encode not byte-identical")
	}

	// Damage one flat member's header: both degraded loaders quarantine it
	// and serve the rest.
	offs := sectionOffsets(t, blob)
	last := uint32(lsh.NumMembers() - 1)
	span := offs[secMemberBase+last]
	corrupt := append([]byte(nil), blob...)
	corrupt[span[0]+24+flatHeaderOff+8] ^= 0x01
	wantName := lsh.Members()[last].Name

	for _, load := range []struct {
		name string
		run  func() (DistanceIndex, []Quarantined, error)
	}{
		{"Load/tolerant", func() (DistanceIndex, []Quarantined, error) {
			return Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true})
		}},
		{"LoadBytesOpts/tolerant", func() (DistanceIndex, []Quarantined, error) {
			return LoadBytesOpts(corrupt, nil, LoadOptions{Tolerant: true})
		}},
	} {
		idx, quarantined, err := load.run()
		if err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		if len(quarantined) != 1 || quarantined[0].Name != wantName {
			t.Fatalf("%s quarantined %+v, want exactly %q", load.name, quarantined, wantName)
		}
		if got := idx.(*ShardedIndex).NumMembers(); got != sh.NumMembers()-1 {
			t.Fatalf("%s served %d members, want %d", load.name, got, sh.NumMembers()-1)
		}
		if _, _, err := LoadBytesOpts(corrupt, nil, LoadOptions{}); err == nil {
			t.Fatalf("strict LoadBytesOpts accepted the corrupt member")
		}
	}
}

func TestFlatQueryZeroAllocs(t *testing.T) {
	_, o, f := flatPair(t, 9, 16, 9900)
	n := int32(o.npoi)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := f.Query(0, n-1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("flat Query allocates %.1f objects per op, want 0", avg)
	}
	pairs := [][2]int32{{0, 1}, {1, n - 1}, {n - 1, 0}}
	dst := make([]float64, len(pairs))
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := f.QueryBatch(pairs, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("flat QueryBatch allocates %.1f objects per op, want 0", avg)
	}
}

func TestConvertFlatRejectsOtherKinds(t *testing.T) {
	w := newTestWorld(t, 9, 8, 9950)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 9951})
	f, err := ConvertFlat(o)
	if err != nil {
		t.Fatal(err)
	}
	// Converting a conversion is the identity.
	again, err := ConvertFlat(f)
	if err != nil || again != f {
		t.Fatalf("ConvertFlat(flat) = (%v, %v), want identity", again, err)
	}
	dyn, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.3, Seed: 9952})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertFlat(dyn); err == nil {
		t.Error("ConvertFlat accepted a dynamic oracle")
	}
}
