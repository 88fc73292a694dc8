package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seoracle/internal/chaos"
	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// lodFixture builds the 11×11, 30-POI, 4-tile, 2-level LOD container of
// TestLODCoordinatePairsMatchCore and returns the index with its container
// bytes.
func lodFixture(t *testing.T) (*core.ShardedIndex, []byte) { return lodFixtureN(t, 30) }

// lodFixtureN is lodFixture with npoi POIs.
func lodFixtureN(t *testing.T, npoi int) (*core.ShardedIndex, []byte) {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 10, Amp: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, npoi, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.BuildShardedLOD(geodesic.NewExact(m), m, gen.Dedup(pois, 1e-9), 4, core.LODOptions{
		Options: core.Options{Epsilon: 0.25, Seed: 3}, Levels: 2, SitesPerEdge: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return sh, buf.Bytes()
}

// corruptSection returns a copy of a container image with the middle byte
// of section id flipped. The envelope is magic, version, kind, section
// count (12 bytes), then per section an id, a length and the payload.
func corruptSection(t *testing.T, data []byte, id uint32) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	off := 12
	for n := binary.LittleEndian.Uint32(out[8:]); n > 0; n-- {
		sid := binary.LittleEndian.Uint32(out[off:])
		size := int(binary.LittleEndian.Uint64(out[off+4:]))
		off += 12
		if sid == id {
			out[off+size/2] ^= 0xff
			return out
		}
		off += size
	}
	t.Fatalf("container has no section %d", id)
	return nil
}

// serve answers one request through h and returns its status and body.
func serve(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// Failing a member through chaos serves a LOD container exactly as a
// tolerant load whose body for that member is really corrupt: every
// global-id pair and every coordinate pair answers with the same status,
// and a 200 with the same body. Only the quarantine error text differs.
func TestFailMembersMatchesCorruptLoad(t *testing.T) {
	sh, data := lodFixture(t)
	const failed = "tile-1-1"
	ord := -1
	for i, m := range sh.Members() {
		if m.Name == failed {
			ord = i
		}
	}
	if ord < 0 {
		t.Fatalf("fixture has no member %s", failed)
	}
	// Member i's body is section 64+i of a multi container.
	corrupt, q, err := core.LoadBytesOpts(corruptSection(t, data, 64+uint32(ord)), nil, core.LoadOptions{Tolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].Name != failed {
		t.Fatalf("tolerant load quarantined %+v, want %s alone", q, failed)
	}
	want := NewWithOptions(corrupt, Options{Quarantined: q}).Handler()

	var reqs []string
	n := sh.NumGlobalIDs()
	for i := 0; i < n*n; i++ {
		reqs = append(reqs, fmt.Sprintf("/v1/query?s=%d&t=%d", i/n, i%n))
	}
	for _, s := range [][2]float64{{10, 10}, {30, 70}, {60, 60}, {80, 30}, {90, 90}} {
		for _, d := range [][2]float64{{20, 15}, {45, 55}, {70, 80}, {95, 5}, {88, 92}} {
			q := fmt.Sprintf("sx=%g&sy=%g&tx=%g&ty=%g", s[0], s[1], d[0], d[1])
			reqs = append(reqs, "/v1/query?"+q, "/v1/path?"+q)
		}
	}
	for _, mode := range []struct {
		name string
		opt  core.LoadOptions
	}{{"eager", core.LoadOptions{}}, {"budgeted", core.LoadOptions{MemBudget: 1}}} {
		idx, _, err := core.LoadBytesOpts(data, nil, mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		idx, injected, err := chaos.FailMembers(idx, []string{failed})
		if err != nil {
			t.Fatal(err)
		}
		got := NewWithOptions(idx, Options{Quarantined: injected}).Handler()
		ok, bad := 0, 0
		for _, r := range reqs {
			gc, gb := serve(got, http.MethodGet, r, "")
			wc, wb := serve(want, http.MethodGet, r, "")
			if gc != wc || (wc == http.StatusOK && gb != wb) {
				if bad++; bad <= 10 {
					t.Errorf("%s %s: FailMembers answers %d %s, corrupt load %d %s", mode.name, r, gc, gb, wc, wb)
				}
			}
			if gc == http.StatusOK {
				ok++
			}
		}
		if bad > 10 {
			t.Errorf("%s: %d mismatches in all", mode.name, bad)
		}
		if ok < len(reqs)/2 {
			t.Errorf("%s: only %d of %d requests answered 200", mode.name, ok, len(reqs))
		}
	}
}

// A global id owned by a quarantined member answers 503, in an eager and a
// budgeted load alike, as the same member named by index= or reached by a
// coordinate does: the data exists, but this process cannot serve it.
func TestQuarantinedGlobalIDAnswers503(t *testing.T) {
	sh, data := lodFixtureN(t, 40)
	const failed = "tile-1-1"
	if name, _, ok := sh.MemberOf(39); !ok || name != failed {
		t.Fatalf("global id 39 belongs to %q, want %s", name, failed)
	}
	for _, mode := range []struct {
		name string
		opt  core.LoadOptions
	}{{"eager", core.LoadOptions{}}, {"budgeted", core.LoadOptions{MemBudget: 1}}} {
		idx, _, err := core.LoadBytesOpts(data, nil, mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		idx, injected, err := chaos.FailMembers(idx, []string{failed})
		if err != nil {
			t.Fatal(err)
		}
		h := NewWithOptions(idx, Options{Quarantined: injected}).Handler()
		if code, body := serve(h, http.MethodGet, "/v1/query?s=0&t=39", ""); code != http.StatusServiceUnavailable {
			t.Errorf("%s: /v1/query?s=0&t=39 answers %d %s, want 503", mode.name, code, body)
		}
		if code, body := serve(h, http.MethodGet, "/v1/query?s=0&t=1", ""); code != http.StatusOK {
			t.Errorf("%s: healthy pair answers %d %s, want 200", mode.name, code, body)
		}
	}
}

// A lazy member has the capabilities of its eagerly decoded body, no more:
// every query form, named at a fine tile, named at the coarse member and
// unnamed, answers with the same status and body in eager, budgeted and
// mmap loads.
func TestLoadModesServeAlike(t *testing.T) {
	_, data := lodFixture(t)
	path := filepath.Join(t.TempDir(), "lod.sedx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	type request struct{ method, path, body string }
	var reqs []request
	for _, name := range []string{"tile-0-0", "coarse-1", ""} {
		named, field := "", ""
		if name != "" {
			named, field = "&index="+name, fmt.Sprintf(`"index":%q,`, name)
		}
		reqs = append(reqs,
			request{"GET", "/v1/query?s=0&t=3" + named, ""},
			request{"GET", "/v1/query?sx=10&sy=10&tx=20&ty=15" + named, ""},
			request{"GET", "/v1/query?sx=10&sy=10&tx=90&ty=90" + named, ""},
			request{"GET", "/v1/path?s=0&t=3" + named, ""},
			request{"GET", "/v1/path?sx=10&sy=10&tx=20&ty=15" + named, ""},
			request{"GET", "/v1/path?sx=10&sy=10&tx=90&ty=90" + named, ""},
			request{"POST", "/v1/batch", "{" + field + `"pairs":[[0,1],[2,3],[0,20]]}`},
			request{"POST", "/v1/matrix", "{" + field + `"sources":[0,1],"targets":[2,20]}`},
			request{"POST", "/v1/matrix", "{" + field + `"source_coords":[[10,10]],"target_coords":[[20,15],[90,90]]}`},
			request{"GET", "/v1/nearest?x=30&y=30" + named, ""},
			request{"GET", "/v1/nearest?x=30&y=30&k=3" + named, ""},
			request{"GET", "/v1/isochrone?s=0&d=40" + named, ""},
		)
	}
	var eager []string
	for _, mode := range []struct {
		name string
		mmap bool
		opt  core.LoadOptions
	}{{"eager", false, core.LoadOptions{}}, {"budgeted", false, core.LoadOptions{MemBudget: 1}}, {"mmap", true, core.LoadOptions{}}} {
		idx, _, err := LoadIndexOpts(path, mode.mmap, mode.opt)
		if err != nil {
			t.Fatalf("%s: load: %v", mode.name, err)
		}
		h := New(idx).Handler()
		for i, r := range reqs {
			code, body := serve(h, r.method, r.path, r.body)
			got := fmt.Sprintf("%d %s", code, body)
			if mode.name == "eager" {
				eager = append(eager, got)
			} else if got != eager[i] {
				t.Errorf("%s %s %s %s: %s, eager load: %s", mode.name, r.method, r.path, r.body, got, eager[i])
			}
		}
		if c, ok := idx.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}
