package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// newSteepWorld builds the steep fixture family of the serving benchmark
// (CellDX 30, Amp 220, no dedup) with separate terrain and POI seeds, plus
// the exact all-pairs distances the parity checks compare against.
func newSteepWorld(t *testing.T, nx, npoi int, tseed, pseed int64) *testWorld {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: nx, NY: nx, CellDX: 30, Amp: 220, Seed: tseed})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, npoi, pseed)
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{mesh: m, pois: pois, eng: geodesic.NewExact(m)}
	w.exact = make([][]float64, len(pois))
	for i := range pois {
		w.exact[i] = w.eng.DistancesTo(pois[i], pois, geodesic.Stop{CoverTargets: true})
	}
	return w
}

// TestLODCoveringFallback builds the inputs on which a partition-tree POI
// used to find no parent: its covering node lies exactly 2·r_i away measured
// from the node's side, but a few ulps farther measured from the POI's side,
// outside the bounded parent search. The build now falls back to the node
// whose disk removed the POI, and the result must answer within the usual
// cross-tile parity band.
func TestLODCoveringFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four hierarchical fixtures")
	}
	cases := []struct {
		name          string
		nx, npoi      int
		pseed         int64
		sites, portal int
		slow          bool // skipped under -race: a ~15 s build there takes minutes
	}{
		{"9x9-40poi-seed1695", 9, 40, 1695, 1, 0, false},
		{"9x9-40poi-seed1696", 9, 40, 1696, 1, 0, false},
		{"9x9-40poi-seed1699", 9, 40, 1699, 1, 0, false},
		{"17x17-100poi-seed1702", 17, 100, 1702, 1, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && raceEnabled {
				t.Skip("the partition code under test is single-threaded; the 9x9 cases cover it under -race")
			}
			w := newSteepWorld(t, tc.nx, tc.npoi, 1701, tc.pseed)
			const eps = 0.25
			opt := LODOptions{Options: Options{Epsilon: eps, Seed: 1}, Levels: 2,
				SitesPerEdge: tc.sites, PortalsPerEdge: tc.portal}
			sh := buildLOD(t, w, 4, opt)
			per := tc.portal
			if per == 0 {
				per = DefaultPortalsPerEdge
			}
			if cross := checkLODParity(t, sh, w, eps, 4*maxPortalSpacing(sh, per)); cross == 0 {
				t.Fatal("parity check exercised no cross-tile pairs")
			}
		})
	}
}

// TestLODFixtureBytesUnchanged pins the encoded bytes of hierarchical
// fixtures that built before the covering fallback existed: the fallback
// only fires where the build used to fail, so these must not move. want is
// the digest of the container the legacy writer emits (se tiles and an
// se-body coarse member: the bytes these fixtures had before multi
// containers wrote their members flat); flat is the digest of today's
// encoding, flat tiles and a flat-body coarse member. The digests were taken on
// amd64; other architectures may fuse floating-point multiply-adds and
// legitimately produce different distances.
func TestLODFixtureBytesUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	cases := []struct {
		name             string
		nx, npoi, shards int
		pseed            int64
		want             string
		flat             string
	}{
		{"9x9-40poi-seed1697-4shards", 9, 40, 4, 1697, "abd8c97e53f863aa300db54764fef56fa276969cdab2fa7e1a2bfeefb60791df",
			"13d34ef913f9dfcc71cc2d899a7d7bc6669d0ed063bd5d5507ba6ce97d381f5c"},
		{"11x11-80poi-seed1705-9shards", 11, 80, 9, 1705, "512480efa81ed03e3546ce2da2cd3b388a904aa4dff919ce71824305e12376a1",
			"47e1609de904c3bfae0f9ce138dcefae90987284f0152a9c67d06e105832c8bc"},
	}
	digest := func(data []byte) string {
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newSteepWorld(t, tc.nx, tc.npoi, 1701, tc.pseed)
			opt := LODOptions{Options: Options{Epsilon: 0.25, Seed: 1}, Levels: 2, SitesPerEdge: 1}
			sh := buildLOD(t, w, tc.shards, opt)
			if got := digest(encodeLegacy(t, sh)); got != tc.want {
				t.Errorf("legacy se-tile fixture sha256 = %s, want %s", got, tc.want)
			}
			var buf bytes.Buffer
			if err := sh.EncodeTo(&buf); err != nil {
				t.Fatal(err)
			}
			if got := digest(buf.Bytes()); got != tc.flat {
				t.Errorf("flat-tile fixture sha256 = %s, want %s", got, tc.flat)
			}
		})
	}
}
