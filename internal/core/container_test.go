package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"seoracle/internal/terrain"
)

// encodeIndex runs EncodeTo into a buffer, failing the test on error.
func encodeIndex(t *testing.T, idx DistanceIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	return buf.Bytes()
}

// oracleOnlyContainer frames o's body as an se container holding only the
// secOracle section: an index with neither a point table nor a mesh.
func oracleOnlyContainer(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeContainer(&buf, KindSE, []section{o.bodySection()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadIndex Loads a container, failing the test on error.
func loadIndex(t *testing.T, data []byte) DistanceIndex {
	t.Helper()
	idx, _, err := Load(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return idx
}

// TestContainerRoundTripSE: build, encode, load — the loaded oracle is the
// same concrete type, answers a fixed workload identically, and re-encodes
// byte-identically (the container is a canonical function of content).
func TestContainerRoundTripSE(t *testing.T) {
	w := newTestWorld(t, 11, 24, 901)
	o := w.build(t, Options{Epsilon: 0.15, Seed: 902})
	enc := encodeIndex(t, o)

	idx := loadIndex(t, enc)
	o2, ok := idx.(*Oracle)
	if !ok {
		t.Fatalf("Load returned %T, want *Oracle", idx)
	}
	if st := o2.Stats(); st.Kind != KindSE || st.Points != len(w.pois) {
		t.Fatalf("loaded stats %+v", st)
	}
	for s := range w.pois {
		for q := range w.pois {
			a, err1 := o.Query(int32(s), int32(q))
			b, err2 := o2.Query(int32(s), int32(q))
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("(%d,%d): %v/%v vs %v/%v", s, q, a, err1, b, err2)
			}
		}
	}
	if re := encodeIndex(t, o2); !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
	}
	// The point table travels with the container, so Nearest works on the
	// loaded oracle and agrees with the builder's.
	px, py := w.pois[0].P.X, w.pois[0].P.Y
	id1, _, _, err1 := o.Nearest(px, py)
	id2, _, _, err2 := o2.Nearest(px, py)
	if err1 != nil || err2 != nil || id1 != id2 || id1 != 0 {
		t.Fatalf("Nearest: %d/%v vs %d/%v", id1, err1, id2, err2)
	}
}

// TestContainerRoundTripA2A: the first-time SiteOracle serialization. The
// loaded oracle must answer both site-id and arbitrary-point queries
// identically (the rebuilt engine and locator are deterministic), and
// re-encode byte-identically.
func TestContainerRoundTripA2A(t *testing.T) {
	w := newTestWorld(t, 9, 8, 911)
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.25, Seed: 912}})
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeIndex(t, so)

	idx := loadIndex(t, enc)
	so2, ok := idx.(*SiteOracle)
	if !ok {
		t.Fatalf("Load returned %T, want *SiteOracle", idx)
	}
	st := so2.Stats()
	if st.Kind != KindA2A || st.Sites != so.NumSites() || st.SiteSpacing != so.spacing ||
		st.SitesPerEdge != so.sitesPerEdge || st.LocalThreshold != so.localThreshold {
		t.Fatalf("loaded stats %+v", st)
	}
	// Site-id queries (the DistanceIndex surface).
	for i := 0; i < so.NumSites(); i += 7 {
		a, err1 := so.Query(int32(i), int32(so.NumSites()-1-i))
		b, err2 := so2.Query(int32(i), int32(so.NumSites()-1-i))
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("site query %d: %v/%v vs %v/%v", i, a, err1, b, err2)
		}
	}
	// Arbitrary-point queries, including short-range ones that exercise the
	// rebuilt engine and the local regime.
	pts := []terrain.SurfacePoint{
		w.mesh.FacePoint(0, 0.3, 0.4, 0.3),
		w.mesh.FacePoint(int32(w.mesh.NumFaces()/2), 0.5, 0.2, 0.3),
		w.mesh.FacePoint(int32(w.mesh.NumFaces()-1), 0.2, 0.2, 0.6),
		w.mesh.FacePoint(1, 0.6, 0.2, 0.2),
	}
	for i, s := range pts {
		for _, q := range pts[i:] {
			a, err1 := so.QueryPoints(s, q)
			b, err2 := so2.QueryPoints(s, q)
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("point query: %v/%v vs %v/%v", a, err1, b, err2)
			}
		}
	}
	if so2.LocalQueries() == 0 {
		t.Error("expected at least one local-regime query in the workload")
	}
	// Projection works against the rebuilt locator.
	if _, ok := so2.Project(pts[0].P.X, pts[0].P.Y); !ok {
		t.Error("Project failed on an in-terrain point")
	}
	if re := encodeIndex(t, so2); !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
	}
}

// TestContainerRoundTripDynamic: serialize a dynamic oracle mid-churn
// (live overflow rows and tombstones), load it, verify query parity, then
// run an identical insert/delete sequence on both the original and the
// decoded oracle — the decoded one must keep answering identically,
// proving the rebuilt engine and the restored churn state are live.
func TestContainerRoundTripDynamic(t *testing.T) {
	w := newTestWorld(t, 11, 14, 921)
	build := func() *DynamicOracle {
		d, err := NewDynamicOracle(w.eng, w.mesh, w.pois[:10], Options{Epsilon: 0.2, Seed: 922})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := build()
	// Pre-encode churn: one insert (overflow row) and one delete
	// (tombstone), small enough not to trigger a rebuild.
	if _, err := d.Insert(w.pois[10]); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(3); err != nil {
		t.Fatal(err)
	}
	enc := encodeIndex(t, d)

	idx := loadIndex(t, enc)
	d2, ok := idx.(*DynamicOracle)
	if !ok {
		t.Fatalf("Load returned %T, want *DynamicOracle", idx)
	}
	st := d2.Stats()
	if st.Kind != KindDynamic || st.Live != d.Live() || st.Overflow != 1 || st.Tombstones != 1 {
		t.Fatalf("loaded stats %+v", st)
	}
	parity := func(stage string) {
		t.Helper()
		for s := 0; s < len(d.pois); s++ {
			for q := 0; q < len(d.pois); q++ {
				if d.deleted[int32(s)] || d.deleted[int32(q)] {
					continue
				}
				a, err1 := d.Query(int32(s), int32(q))
				b, err2 := d2.Query(int32(s), int32(q))
				if err1 != nil || err2 != nil || a != b {
					t.Fatalf("%s (%d,%d): %v/%v vs %v/%v", stage, s, q, a, err1, b, err2)
				}
			}
		}
	}
	parity("after load")
	if re := encodeIndex(t, d2); !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
	}

	// Post-load mutations: the same insert/delete sequence on both oracles
	// (this crosses the rebuild threshold, exercising a full Build on the
	// decoded oracle's rebuilt engine).
	for i := 11; i < 14; i++ {
		id1, err1 := d.Insert(w.pois[i])
		id2, err2 := d2.Insert(w.pois[i])
		if err1 != nil || err2 != nil || id1 != id2 {
			t.Fatalf("insert %d: %d/%v vs %d/%v", i, id1, err1, id2, err2)
		}
	}
	if err := d.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := d2.Delete(5); err != nil {
		t.Fatal(err)
	}
	parity("after post-load churn")
	if d2.Live() != d.Live() {
		t.Fatalf("live counts diverged: %d vs %d", d.Live(), d2.Live())
	}
	// LiveIDs is the valid Query id space: every listed id answers, and
	// the tombstoned ids are absent.
	ids := d2.LiveIDs()
	if len(ids) != d2.Live() {
		t.Fatalf("LiveIDs returned %d ids for %d live POIs", len(ids), d2.Live())
	}
	for _, id := range ids {
		if _, err := d2.Query(id, ids[0]); err != nil {
			t.Fatalf("live id %d errors: %v", id, err)
		}
	}
}

// TestContainerRejectsCorruption: the envelope must reject truncation, bit
// flips (CRC), kind confusion, unknown kinds and oversized headers with
// errors — never a panic.
func TestContainerRejectsCorruption(t *testing.T) {
	w := newTestWorld(t, 9, 10, 951)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 952})
	enc := encodeIndex(t, o)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 4, 8, 12, len(enc) / 2, len(enc) - 1} {
			if _, _, err := Load(bytes.NewReader(enc[:n]), LoadOptions{}); err == nil {
				t.Errorf("truncation at %d accepted", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{8, 20, len(enc) / 2, len(enc) - 2} {
			bad := append([]byte(nil), enc...)
			bad[pos] ^= 0x40
			if _, _, err := Load(bytes.NewReader(bad), LoadOptions{}); err == nil {
				t.Errorf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("kind-confusion", func(t *testing.T) {
		// Re-frame the SE sections under the a2a kind tag (with a valid
		// CRC): the a2a decoder must reject the missing sections.
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindA2A, []section{o.bodySection()}); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
		if err == nil || !strings.Contains(err.Error(), "missing required section") {
			t.Fatalf("kind confusion: %v", err)
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeContainer(&buf, Kind(99), nil); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
		if err == nil || !strings.Contains(err.Error(), "unknown index kind") {
			t.Fatalf("unknown kind: %v", err)
		}
	})
	t.Run("oversized-section-header", func(t *testing.T) {
		// A hand-built container whose single section claims 2^63 bytes:
		// the reader must fail at EOF after committing only the bytes
		// actually present, not allocate the declared size.
		var buf bytes.Buffer
		buf.WriteString(containerMagic)
		binary.Write(&buf, binary.LittleEndian, []uint16{containerVersion, uint16(KindSE)})
		binary.Write(&buf, binary.LittleEndian, uint32(1))
		binary.Write(&buf, binary.LittleEndian, uint32(secOracle))
		binary.Write(&buf, binary.LittleEndian, uint64(1)<<62)
		buf.WriteString("short")
		if _, _, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{}); err == nil {
			t.Error("oversized section header accepted")
		}
	})
	t.Run("too-many-sections", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString(containerMagic)
		binary.Write(&buf, binary.LittleEndian, []uint16{containerVersion, uint16(KindSE)})
		binary.Write(&buf, binary.LittleEndian, uint32(maxContainerSections+1))
		_, _, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
		if err == nil || !strings.Contains(err.Error(), "sections") {
			t.Fatalf("section-count bomb: %v", err)
		}
	})
}

// TestSiteOracleStatsSurface: the localQueries regime counter, site count
// and spacing are observable through the shared Stats surface after build
// — the fix for the previously unobservable regime split.
func TestSiteOracleStatsSurface(t *testing.T) {
	w := newTestWorld(t, 9, 8, 961)
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.25, Seed: 962}})
	if err != nil {
		t.Fatal(err)
	}
	st := so.Stats()
	if st.Sites != so.NumSites() || st.Sites == 0 {
		t.Errorf("Stats().Sites = %d, NumSites = %d", st.Sites, so.NumSites())
	}
	if st.SiteSpacing <= 0 || st.SitesPerEdge <= 0 || st.LocalThreshold <= 0 {
		t.Errorf("regime parameters unobservable: %+v", st)
	}
	if st.LocalQueries != 0 {
		t.Errorf("fresh oracle reports %d local queries", st.LocalQueries)
	}
	// Two nearby in-face points force the short-range regime.
	a := w.mesh.FacePoint(0, 0.4, 0.3, 0.3)
	b := w.mesh.FacePoint(1, 0.35, 0.33, 0.32)
	if _, err := so.QueryPoints(a, b); err != nil {
		t.Fatal(err)
	}
	if got := so.Stats().LocalQueries; got != int64(so.LocalQueries()) || got == 0 {
		t.Errorf("Stats().LocalQueries = %d, LocalQueries() = %d", got, so.LocalQueries())
	}
}
