package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/server"
)

// testdata/legacy-a2a.sedx is an a2a container in the layout written before
// the inner oracle was flat (an se body plus a separate site table): a 4×4
// fractal terrain, one Steiner site per edge, ε = 0.5.

// seconvert upgrades a legacy a2a container to the flat-body layout, and the
// result answers a seeded sample of every point-query form bit for bit as
// the legacy load does, read from the file and from a mapping.
func TestConvertLegacyA2A(t *testing.T) {
	in := filepath.Join("testdata", "legacy-a2a.sedx")
	out := filepath.Join(t.TempDir(), "a2a.flat.sedx")
	legacyIdx, _, _, _, err := convert(in, out)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyIdx.(*core.SiteOracle)
	if core.MappedBytesOf(legacy) != 0 || legacy.Inner() == nil {
		t.Fatal("the test container is not in the legacy se-body layout")
	}
	loaded := map[string]*core.SiteOracle{}
	for _, mmap := range []bool{false, true} {
		idx, _, err := server.LoadIndexOpts(out, mmap, core.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		so, ok := idx.(*core.SiteOracle)
		if !ok {
			t.Fatalf("converted container loads as %T, want *core.SiteOracle", idx)
		}
		if core.MappedBytesOf(so) == 0 || so.Inner() != nil {
			t.Fatalf("mmap=%v: converted container does not serve a flat body in place", mmap)
		}
		loaded[map[bool]string{false: "file", true: "mmap"}[mmap]] = so
	}

	all, err := legacy.NearestK(0, 0, legacy.NumSites())
	if err != nil {
		t.Fatal(err)
	}
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, nb := range all {
		minX, maxX = math.Min(minX, nb.At.P.X), math.Max(maxX, nb.At.P.X)
		minY, maxY = math.Min(minY, nb.At.P.Y), math.Max(maxY, nb.At.P.Y)
	}
	rng := rand.New(rand.NewSource(1))
	xy := func() (float64, float64) {
		return minX + rng.Float64()*(maxX-minX), minY + rng.Float64()*(maxY-minY)
	}
	same := func(what string, want, got any) {
		t.Helper()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: converted answers %v, legacy %v", what, got, want)
		}
	}
	bits := func(d float64, err error) any {
		if err != nil {
			return err.Error()
		}
		return math.Float64bits(d)
	}
	answered := 0
	for i := 0; i < 40; i++ {
		sx, sy := xy()
		tx, ty := xy()
		s, _ := legacy.Project(sx, sy)
		q, _ := legacy.Project(tx, ty)
		src := int32(rng.Intn(legacy.NumSites()))
		radius := rng.Float64() * (maxX - minX)
		wantPath, wantLen, wantErr := legacy.QueryPathXY(sx, sy, tx, ty)
		wantNear, _ := legacy.NearestK(sx, sy, 5)
		wantReach, _ := legacy.Reachable(src, radius)
		if wantErr == nil && len(wantReach) > 0 {
			answered++
		}
		for name, so := range loaded {
			same(name+" QueryPoints", bits(legacy.QueryPoints(s, q)), bits(so.QueryPoints(s, q)))
			same(name+" QueryXY", bits(legacy.QueryXY(sx, sy, tx, ty)), bits(so.QueryXY(sx, sy, tx, ty)))
			path, length, err := so.QueryPathXY(sx, sy, tx, ty)
			same(name+" QueryPathXY", []any{wantPath, bits(wantLen, wantErr)}, []any{path, bits(length, err)})
			near, _ := so.NearestK(sx, sy, 5)
			same(name+" NearestK", wantNear, near)
			reach, _ := so.Reachable(src, radius)
			same(name+" Reachable", wantReach, reach)
		}
	}
	if answered < 30 {
		t.Errorf("only %d of 40 sampled paths and reachability sets answered", answered)
	}
}
