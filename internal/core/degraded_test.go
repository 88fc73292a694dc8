package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// degraded_test.go — fault-tolerant (degraded) loading of multi containers:
// corrupt member bodies are quarantined by their inner CRCs while the healthy
// rest keep serving, and corruption the members cannot explain stays fatal.

// sectionOffsets walks the outer container framing of an encoded index and
// returns each section's payload offset and length. Test-side only: it
// trusts the framing (the loads under test verify it independently).
func sectionOffsets(t *testing.T, blob []byte) map[uint32][2]int {
	t.Helper()
	r := bytes.NewReader(blob)
	var magic [4]byte
	if _, err := r.Read(magic[:]); err != nil || string(magic[:]) != containerMagic {
		t.Fatalf("bad container magic %q (%v)", magic[:], err)
	}
	var version, kind uint16
	var nsect uint32
	for _, p := range []any{&version, &kind, &nsect} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			t.Fatalf("container header: %v", err)
		}
	}
	out := make(map[uint32][2]int, nsect)
	for i := uint32(0); i < nsect; i++ {
		var id uint32
		var length uint64
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			t.Fatalf("section %d header: %v", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
			t.Fatalf("section %d header: %v", i, err)
		}
		off := len(blob) - r.Len()
		out[id] = [2]int{off, int(length)}
		if _, err := r.Seek(int64(length), 1); err != nil {
			t.Fatalf("section %d seek: %v", i, err)
		}
	}
	return out
}

// encodeMultiBlob builds a small 4-tile sharded SE index and returns its
// encoded bytes together with the built index (for comparing answers).
func encodeMultiBlob(t *testing.T) (*ShardedIndex, []byte) {
	t.Helper()
	w := newTestWorld(t, 9, 16, 4301)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 4302})
	if sh.NumMembers() < 2 {
		t.Fatalf("want >= 2 members, got %d", sh.NumMembers())
	}
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	return sh, buf.Bytes()
}

// corruptSection flips one byte in the middle of the named section's
// payload, returning a fresh copy.
func corruptSection(t *testing.T, blob []byte, offs map[uint32][2]int, id uint32) []byte {
	t.Helper()
	span, ok := offs[id]
	if !ok {
		t.Fatalf("container has no section %d", id)
	}
	out := append([]byte(nil), blob...)
	out[span[0]+span[1]/2] ^= 0xff
	return out
}

func TestLoadDegradedQuarantinesCorruptMember(t *testing.T) {
	sh, blob := encodeMultiBlob(t)
	offs := sectionOffsets(t, blob)
	last := uint32(sh.NumMembers() - 1)
	corrupt := corruptSection(t, blob, offs, secMemberBase+last)

	// The strict path must reject the file outright: the outer CRC no
	// longer matches.
	if _, _, err := Load(bytes.NewReader(corrupt), LoadOptions{}); err == nil {
		t.Fatal("strict Load accepted a corrupted multi container")
	} else if !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("strict Load error %q does not name the CRC mismatch", err)
	}

	idx, quarantined, err := Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant Load: %v", err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("want exactly 1 quarantined member, got %d (%v)", len(quarantined), quarantined)
	}
	wantName := sh.Members()[last].Name
	q := quarantined[0]
	if q.Name != wantName {
		t.Errorf("quarantined %q, corrupted member is %q", q.Name, wantName)
	}
	if q.Err == nil {
		t.Error("quarantined member carries no error")
	}
	if q.Kind != KindSE {
		t.Errorf("quarantined member kind %v, want %v", q.Kind, KindSE)
	}
	got, ok := idx.(*ShardedIndex)
	if !ok {
		t.Fatalf("tolerant Load returned %T, want *ShardedIndex", idx)
	}
	if got.NumMembers() != sh.NumMembers()-1 {
		t.Fatalf("degraded index holds %d members, want %d", got.NumMembers(), sh.NumMembers()-1)
	}
	// Healthy members answer exactly what the original index answers.
	for _, m := range got.Members() {
		orig, ok := sh.Member(m.Name)
		if !ok {
			t.Fatalf("member %q missing from the original", m.Name)
		}
		n := m.Index.(*Oracle).NumPOIs()
		if n < 2 {
			continue
		}
		want, err := orig.Index.Query(0, int32(n-1))
		if err != nil {
			t.Fatalf("original member %q query: %v", m.Name, err)
		}
		have, err := m.Index.Query(0, int32(n-1))
		if err != nil {
			t.Fatalf("degraded member %q query: %v", m.Name, err)
		}
		if have != want {
			t.Errorf("member %q: degraded answer %v, original %v", m.Name, have, want)
		}
	}
}

func TestLoadDegradedIntactMatchesLoad(t *testing.T) {
	sh, blob := encodeMultiBlob(t)
	idx, quarantined, err := Load(bytes.NewReader(blob), LoadOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant Load on an intact container: %v", err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("intact container quarantined %v", quarantined)
	}
	got := idx.(*ShardedIndex)
	if got.NumMembers() != sh.NumMembers() {
		t.Fatalf("loaded %d members, want %d", got.NumMembers(), sh.NumMembers())
	}
}

func TestLoadDegradedAllMembersCorrupt(t *testing.T) {
	sh, blob := encodeMultiBlob(t)
	offs := sectionOffsets(t, blob)
	corrupt := append([]byte(nil), blob...)
	for i := 0; i < sh.NumMembers(); i++ {
		corrupt = corruptSection(t, corrupt, offs, secMemberBase+uint32(i))
	}
	_, _, err := Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true})
	if err == nil {
		t.Fatal("tolerant Load served a container with every member corrupt")
	}
	if !strings.Contains(err.Error(), "every member") {
		t.Fatalf("error %q does not explain the total failure", err)
	}
}

func TestLoadDegradedRefusesUnexplainedCorruption(t *testing.T) {
	// Flip a byte of the outer CRC footer itself: every member decodes, so
	// the mismatch points at state the members cannot vouch for.
	_, blob := encodeMultiBlob(t)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)-2] ^= 0xff
	_, _, err := Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true})
	if err == nil {
		t.Fatal("tolerant Load served despite an unexplained outer CRC mismatch")
	}
	if !strings.Contains(err.Error(), "outside any member body") {
		t.Fatalf("error %q does not name the unexplained corruption", err)
	}
}

func TestLoadDegradedManifestCorruptionFatal(t *testing.T) {
	_, blob := encodeMultiBlob(t)
	offs := sectionOffsets(t, blob)
	corrupt := corruptSection(t, blob, offs, secManifest)
	if _, _, err := Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true}); err == nil {
		t.Fatal("tolerant Load served despite a corrupt manifest")
	}
}

func TestLoadDegradedNonMultiStaysStrict(t *testing.T) {
	w := newTestWorld(t, 9, 8, 4311)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 4312})
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	blob := buf.Bytes()

	// Intact: identical to Load, no quarantine list.
	idx, quarantined, err := Load(bytes.NewReader(blob), LoadOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant Load on an intact SE container: %v", err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("SE container quarantined %v", quarantined)
	}
	if _, ok := idx.(*Oracle); !ok {
		t.Fatalf("tolerant Load returned %T, want *Oracle", idx)
	}

	// Corrupt: a single-index container has no members to degrade to.
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, _, err := Load(bytes.NewReader(corrupt), LoadOptions{Tolerant: true}); err == nil {
		t.Fatal("tolerant Load accepted a corrupted single-index container")
	}
}
