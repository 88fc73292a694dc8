package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// loadModes are the ways a container image reaches a decoder: the stream
// reader (strict and tolerant) and the byte-image loader (strict, tolerant,
// and lazy under a 1-byte budget with every member faulted in).
var loadModes = []struct {
	name string
	load func(data []byte) (DistanceIndex, []Quarantined, error)
}{
	{"Load", func(data []byte) (DistanceIndex, []Quarantined, error) {
		return Load(bytes.NewReader(data), LoadOptions{})
	}},
	{"Load/tolerant", func(data []byte) (DistanceIndex, []Quarantined, error) {
		return Load(bytes.NewReader(data), LoadOptions{Tolerant: true})
	}},
	{"Bytes", func(data []byte) (DistanceIndex, []Quarantined, error) {
		return LoadBytesOpts(data, nil, LoadOptions{})
	}},
	{"Bytes/tolerant", func(data []byte) (DistanceIndex, []Quarantined, error) {
		return LoadBytesOpts(data, nil, LoadOptions{Tolerant: true})
	}},
	{"Bytes/budget", func(data []byte) (DistanceIndex, []Quarantined, error) {
		return LoadBytesOpts(data, nil, LoadOptions{MemBudget: 1})
	}},
}

// loadVerdict condenses one load into a comparable string: "err", "ok",
// "ok q=<names>" for quarantined members, "ok fault=<names>" for lazy
// members that fail when touched.
func loadVerdict(idx DistanceIndex, q []Quarantined, err error) string {
	if err != nil {
		return "err"
	}
	var notes []string
	if len(q) > 0 {
		names := make([]string, len(q))
		for i, m := range q {
			names[i] = m.Name
		}
		sort.Strings(names)
		notes = append(notes, "q="+strings.Join(names, ","))
	}
	if sh, ok := idx.(*ShardedIndex); ok {
		var faults []string
		for _, m := range sh.Members() {
			if lm, ok := m.Index.(*lazyMember); ok {
				if _, err := lm.get(); err != nil {
					faults = append(faults, m.Name)
				}
			}
		}
		if len(faults) > 0 {
			sort.Strings(faults)
			notes = append(notes, "fault="+strings.Join(faults, ","))
		}
	}
	return strings.TrimSpace("ok " + strings.Join(notes, " "))
}

// flipSection returns a copy of data with one byte of section id's payload
// inverted: the middle byte, or the byte at off when off >= 0; off == -2
// picks the payload's second-to-last byte. A nonzero inner names a section
// of the container held in section id (a member body) instead. ok is false
// when the container has no such section.
func flipSection(t *testing.T, data []byte, id uint32, inner uint32, off int) ([]byte, bool) {
	t.Helper()
	out := append([]byte(nil), data...)
	_, secs, err := sliceContainer(out)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := secs[id]
	if !ok {
		return nil, false
	}
	if inner != 0 {
		_, isecs, err := sliceContainer(payload)
		if err != nil {
			t.Fatal(err)
		}
		if payload, ok = isecs[inner]; !ok {
			return nil, false
		}
	}
	switch off {
	case -1:
		off = len(payload) / 2
	case -2:
		off = len(payload) - 2
	}
	payload[off] ^= 0xff
	return out, true
}

// TestLoadModesAgree pins, for every container kind and corruption site,
// what each load mode does: loads, errors, or which members it quarantines
// (tolerant) or fails to fault in (budgeted). The table is the integrity
// contract of the load paths; a refactor of the loaders must not move a
// cell. "-" marks a site the container does not have.
func TestLoadModesAgree(t *testing.T) {
	w := newTestWorld(t, 9, 16, 4401)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 4402})
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.4, Seed: 4403}})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.3, Seed: 4404})
	if err != nil {
		t.Fatal(err)
	}
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.3, Seed: 4405})
	fsh, err := ConvertFlat(sh)
	if err != nil {
		t.Fatal(err)
	}
	lod := buildLOD(t, w, 4, LODOptions{Options: Options{Epsilon: 0.3, Seed: 4406}, Levels: 2, PortalsPerEdge: 2})
	var flat bytes.Buffer
	if err := o.EncodeFlatTo(&flat); err != nil {
		t.Fatal(err)
	}
	containers := []struct {
		name string
		data []byte
	}{
		{"se", encodeIndex(t, o)},
		{"a2a", encodeIndex(t, so)},
		{"dynamic", encodeIndex(t, dyn)},
		{"flat", flat.Bytes()},
		{"multi-se", encodeIndex(t, sh)},
		{"multi-flat", encodeIndex(t, fsh)},
		{"lod", encodeIndex(t, lod)},
	}
	// Member sites hit member 0's body (its middle, or its own CRC footer);
	// "mesh" is a multi's shared mesh or a scalar kind's own mesh section.
	sites := []struct {
		name    string
		corrupt func(data []byte) ([]byte, bool)
	}{
		{"none", func(data []byte) ([]byte, bool) { return data, true }},
		{"footer", func(data []byte) ([]byte, bool) {
			out := append([]byte(nil), data...)
			out[len(out)-2] ^= 0xff
			return out, true
		}},
		{"manifest", func(data []byte) ([]byte, bool) { return flipSection(t, data, secManifest, 0, -1) }},
		{"member", func(data []byte) ([]byte, bool) { return flipSection(t, data, secMemberBase, 0, -1) }},
		{"member-footer", func(data []byte) ([]byte, bool) { return flipSection(t, data, secMemberBase, 0, -2) }},
		{"mesh", func(data []byte) ([]byte, bool) { return flipSection(t, data, secMesh, 0, -1) }},
		{"flat-header", func(data []byte) ([]byte, bool) {
			if out, ok := flipSection(t, data, secFlat, 0, flatHeaderOff+8); ok {
				return out, true
			}
			return flipSection(t, data, secMemberBase, secFlat, flatHeaderOff+8)
		}},
	}
	// want[container/site] lists the verdicts in loadModes order.
	want := map[string][5]string{
		"se/none":                  {"ok", "ok", "ok", "ok", "ok"},
		"se/footer":                {"err", "err", "err", "err", "err"},
		"se/manifest":              {"-", "-", "-", "-", "-"},
		"se/member":                {"-", "-", "-", "-", "-"},
		"se/member-footer":         {"-", "-", "-", "-", "-"},
		"se/mesh":                  {"err", "err", "err", "err", "err"},
		"se/flat-header":           {"-", "-", "-", "-", "-"},
		"a2a/none":                 {"ok", "ok", "ok", "ok", "ok"},
		"a2a/footer":               {"err", "err", "err", "err", "err"},
		"a2a/manifest":             {"-", "-", "-", "-", "-"},
		"a2a/member":               {"-", "-", "-", "-", "-"},
		"a2a/member-footer":        {"-", "-", "-", "-", "-"},
		"a2a/mesh":                 {"err", "err", "err", "err", "err"},
		"a2a/flat-header":          {"-", "-", "-", "-", "-"},
		"dynamic/none":             {"ok", "ok", "ok", "ok", "ok"},
		"dynamic/footer":           {"err", "err", "err", "err", "err"},
		"dynamic/manifest":         {"-", "-", "-", "-", "-"},
		"dynamic/member":           {"-", "-", "-", "-", "-"},
		"dynamic/member-footer":    {"-", "-", "-", "-", "-"},
		"dynamic/mesh":             {"err", "err", "err", "err", "err"},
		"dynamic/flat-header":      {"-", "-", "-", "-", "-"},
		"flat/none":                {"ok", "ok", "ok", "ok", "ok"},
		"flat/footer":              {"err", "err", "ok", "ok", "ok"},
		"flat/manifest":            {"-", "-", "-", "-", "-"},
		"flat/member":              {"-", "-", "-", "-", "-"},
		"flat/member-footer":       {"-", "-", "-", "-", "-"},
		"flat/mesh":                {"-", "-", "-", "-", "-"},
		"flat/flat-header":         {"err", "err", "err", "err", "err"},
		"multi-se/none":            {"ok", "ok", "ok", "ok", "ok"},
		"multi-se/footer":          {"err", "err", "ok", "ok", "ok"},
		"multi-se/manifest":        {"err", "err", "ok", "ok", "ok"},
		"multi-se/member":          {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"multi-se/member-footer":   {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"multi-se/mesh":            {"err", "err", "ok", "ok", "ok"},
		"multi-se/flat-header":     {"-", "-", "-", "-", "-"},
		"multi-flat/none":          {"ok", "ok", "ok", "ok", "ok"},
		"multi-flat/footer":        {"err", "err", "ok", "ok", "ok"},
		"multi-flat/manifest":      {"err", "err", "ok", "ok", "ok"},
		"multi-flat/member":        {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"multi-flat/member-footer": {"err", "err", "ok", "ok", "ok"},
		"multi-flat/mesh":          {"err", "err", "ok", "ok", "ok"},
		"multi-flat/flat-header":   {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"lod/none":                 {"ok", "ok", "ok", "ok", "ok"},
		"lod/footer":               {"err", "err", "ok", "ok", "ok"},
		"lod/manifest":             {"err", "err", "ok", "ok", "ok"},
		"lod/member":               {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"lod/member-footer":        {"err", "ok q=tile-0-0", "err", "ok q=tile-0-0", "ok fault=tile-0-0"},
		"lod/mesh":                 {"err", "err", "ok", "ok", "ok"},
		"lod/flat-header":          {"-", "-", "-", "-", "-"},
	}

	var got strings.Builder
	for _, c := range containers {
		for _, s := range sites {
			data, ok := s.corrupt(c.data)
			key := c.name + "/" + s.name
			var row [5]string
			for i, m := range loadModes {
				row[i] = "-"
				if ok {
					row[i] = loadVerdict(m.load(data))
				}
			}
			fmt.Fprintf(&got, "\t\t%q: {%q, %q, %q, %q, %q},\n", key, row[0], row[1], row[2], row[3], row[4])
			if w, ok := want[key]; !ok || w != row {
				t.Errorf("%s: verdicts %q, want %q", key, row, w)
			}
		}
	}
	if t.Failed() {
		t.Logf("observed table:\n%s", got.String())
	}
}
