package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestTinyRuns runs every workload at the tiny size, untraced and traced,
// and checks that each completes with correct answers and prints every
// metric of its set by name.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--size", "tiny", "--trace-out", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				r := lastResult(t, stdout.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("span file not written: %v", err)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(r.Metrics), len(want))
				}
				report := stdout.String()
				for _, d := range want {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(report, d.name) {
						t.Errorf("report does not print %s", d.name)
					}
				}
				for _, name := range []string{"p99_ms", "failed_frac"} {
					if !strings.Contains(report, name) {
						t.Errorf("report does not print %s", name)
					}
				}
			})
		}
	}
}

// TestForcedBuildErrorIsFailedSetup forces core's builders to fail (a
// non-positive ε) and checks that the run reports a failed set-up with a
// failed result line and exit code 1, not a crash or a skipped measurement.
func TestForcedBuildErrorIsFailedSetup(t *testing.T) {
	for _, w := range []string{"point-lookup", "tiled-budget"} {
		t.Run(w, func(t *testing.T) {
			c, err := configFor(w, "tiny")
			if err != nil {
				t.Fatal(err)
			}
			c.eps = 0
			var stdout, stderr bytes.Buffer
			code := execute(c, options{seed: 1, seconds: 1, traceOut: filepath.Join(t.TempDir(), "s.jsonl")}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), "setup failed") || !strings.Contains(stderr.String(), "epsilon must be positive") {
				t.Errorf("stderr does not report the failed set-up: %s", stderr.String())
			}
			r := lastResult(t, stdout.String())
			if r.Correct || r.Failed != r.Attempted || r.Attempted < 1 {
				t.Errorf("failed set-up reported as %+v", r)
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json %v, program %v", what, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestFoldNumbers(t *testing.T) {
	digest := func(xs ...float64) uint64 {
		h := newAnswerHash()
		for _, x := range xs {
			h.add(x)
		}
		return h.sum()
	}
	cases := []struct {
		kind reqKind
		body string
		want uint64
	}{
		{kindQuery, `{"distance":12.5,"kind":"flat"}`, digest(12.5)},
		{kindQuery, `{"kind":"flat","distance":1e-7}`, digest(1e-7)},
		{kindBatch, `{"distances":[1,2.25,3],"count":3}`, digest(1, 2.25, 3)},
		{kindMatrix, `{"distances":[1,2],"rows":1,"cols":2,"errors":["","bad"]}`, 0},
		{kindPath, `{"type":"Feature","geometry":{"type":"LineString","coordinates":[[1,2,3],[4,5,-6]]},"properties":{"distance":7.5,"vertices":2}}`,
			digest(1, 2, 3, 4, 5, -6, 7.5)},
	}
	for _, c := range cases {
		if got := bodyDigest(c.kind, []byte(c.body)); got != c.want {
			t.Errorf("%s %s: digest %x, want %x", kindNames[c.kind], c.body, got, c.want)
		}
	}
}

// TestBulkMixLongRun checks that bulk-mix can send more path requests than
// there are distinct POI pairs, and that a pair then recurs only after all
// the others, far beyond the server cache's reach.
func TestBulkMixLongRun(t *testing.T) {
	c, err := configFor("bulk-mix", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	pairs := c.pois * (c.pois - 1) / 2
	in := &inputs{}
	if err := genBulkMix(in, c, 1, 6*pairs); err != nil {
		t.Fatal(err)
	}
	var keys []int32
	for _, r := range append(in.warm, in.timed...) {
		if r.kind == kindPath {
			keys = append(keys, min(r.s, r.t)*int32(c.pois)+max(r.s, r.t))
		}
	}
	if len(keys) <= 2*pairs {
		t.Fatalf("%d path requests, want more than %d", len(keys), 2*pairs)
	}
	last := map[int32]int{}
	for i, k := range keys {
		if j, seen := last[k]; seen && i-j != pairs {
			t.Fatalf("pair %d recurs after %d path requests, want %d", k, i-j, pairs)
		}
		last[k] = i
	}
}
