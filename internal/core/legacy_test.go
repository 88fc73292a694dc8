package core

import (
	"bytes"
	"testing"

	"seoracle/internal/terrain"
)

// legacyMember is the member encoder multi containers used before their SE
// tiles and coarse members were written flat: an SE oracle goes out as an se
// container (without its mesh when the container shares it), a site oracle
// as an se-body a2a container (encodeLegacyA2A). Every other member encodes
// as encodeMember does.
func legacyMember(idx DistanceIndex, shared *terrain.Mesh) (Kind, func() ([]byte, error)) {
	if so, ok := idx.(*SiteOracle); ok {
		return KindA2A, func() ([]byte, error) { return encodeLegacyA2A(so) }
	}
	o, ok := idx.(*Oracle)
	if !ok {
		return encodeMember(idx, shared)
	}
	return KindSE, func() ([]byte, error) {
		mesh := o.Mesh()
		if mesh == shared {
			mesh = nil
		}
		var buf bytes.Buffer
		err := o.encodeContainer(&buf, mesh)
		return buf.Bytes(), err
	}
}

// encodeLegacy writes sh exactly as the se-tile writer did, so the tests can
// keep loading the containers already on disk.
func encodeLegacy(t testing.TB, sh *ShardedIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sh.encode(&buf, legacyMember); err != nil {
		t.Fatalf("legacy encode: %v", err)
	}
	return buf.Bytes()
}

// encodeLegacyA2A writes a built site oracle as the a2a container did before
// its inner oracle was written flat: the se body (secOracle), the mesh, the
// site table (secSites), the per-face site lists and the site meta.
func encodeLegacyA2A(so *SiteOracle) ([]byte, error) {
	site := so.siteSections() // mesh, face sites, site meta
	var buf bytes.Buffer
	err := writeContainer(&buf, KindA2A, []section{
		so.oracle.bodySection(), site[0], pointsSection(secSites, so.q.pts), site[1], site[2],
	})
	return buf.Bytes(), err
}
