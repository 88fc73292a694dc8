package core

import (
	"bytes"
	"testing"

	"seoracle/internal/terrain"
)

// legacyMember is the member encoder multi containers used before their SE
// tiles were written flat: an SE oracle goes out as an se container (without
// its mesh when the container shares it). Every other member encodes as
// encodeMember does.
func legacyMember(idx DistanceIndex, shared *terrain.Mesh) (Kind, func() ([]byte, error)) {
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
