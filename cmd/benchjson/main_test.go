package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrajectory writes a two-run trajectory whose runs hold five samples
// of one benchmark each, the second run's scaled by factor, and returns its
// path.
func writeTrajectory(t *testing.T, factor float64, prevCPU, lastCPU string) string {
	t.Helper()
	run := func(label, cpu string, scale float64) Run {
		r := Run{Label: label, Date: "2026-01-01T00:00:00Z", CPU: cpu}
		for _, ns := range []float64{100, 102, 98, 101, 99} {
			r.Benchmarks = append(r.Benchmarks, Benchmark{Name: "BenchmarkX", Iters: 1000, NsPerOp: ns * scale})
		}
		return r
	}
	data, err := json.Marshal(File{Schema: schema, Runs: []Run{run("base", prevCPU, 1), run("change", lastCPU, factor)}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -check fails on a planted 2× same-machine regression at the default
// margin, and passes an unchanged run, a 2× speedup, and a 2× slowdown
// measured on another CPU (compared for information only).
func TestCheckFlagsPlantedRegression(t *testing.T) {
	const margin = 0.30 // the -margin default
	err := checkTrajectory(writeTrajectory(t, 2, "cpu-a", "cpu-a"), margin)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkX") {
		t.Fatalf("2× regression: checkTrajectory = %v, want a regression naming BenchmarkX", err)
	}
	for _, tc := range []struct {
		name      string
		factor    float64
		prev, cur string
	}{
		{"unchanged", 1, "cpu-a", "cpu-a"},
		{"2x faster", 0.5, "cpu-a", "cpu-a"},
		{"2x slower on another cpu", 2, "cpu-a", "cpu-b"},
	} {
		if err := checkTrajectory(writeTrajectory(t, tc.factor, tc.prev, tc.cur), margin); err != nil {
			t.Errorf("%s: checkTrajectory = %v, want pass", tc.name, err)
		}
	}
}

// -check refuses a trajectory it cannot trust.
func TestCheckRejectsBadTrajectory(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"garbage": "{not json",
		"schema":  `{"schema":"other","runs":[]}`,
		"empty":   `{"schema":"` + schema + `","runs":[]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkTrajectory(path, 0.30); err == nil {
			t.Errorf("%s: checkTrajectory passed", name)
		}
	}
	if err := checkTrajectory(filepath.Join(dir, "missing.json"), 0.30); err == nil {
		t.Error("missing file: checkTrajectory passed")
	}
}
