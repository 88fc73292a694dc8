// Command benchjson converts `go test -bench -benchmem` output (stdin) into
// a machine-readable perf-trajectory file. Each invocation appends one
// labeled run to the output JSON, so the file accumulates the project's
// measured history: every perf PR appends its numbers and diffs against the
// runs already recorded (see the "Performance" section of the README for the
// file format).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -label pr2 -o BENCH_perf.json
//	benchjson -check -o BENCH_perf.json   # CI gate: fail when missing/invalid
//
// -check also runs a benchstat-style comparison of the last two recorded
// runs: samples sharing a benchmark name within a run (go test -count=N)
// are pooled into mean ± 95% confidence interval, and a benchmark is
// flagged as a regression only when the intervals are disjoint AND the
// mean moved by more than -margin AND both runs came from the same CPU —
// cross-machine runs differ by ~2× from hardware alone (see ROADMAP), so
// they are compared for information, never gated on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark line: the standard ns/op, B/op and allocs/op
// columns plus any custom ReportMetric columns (keyed by unit).
type Benchmark struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled invocation of the benchmark suite.
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	Commit     string      `json:"commit,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"` // space-separated when the run spans packages
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk trajectory: runs in append order, oldest first.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

const schema = "seoracle-bench/v1"

func main() {
	var (
		label  = flag.String("label", "local", "label for this run (e.g. the PR name)")
		out    = flag.String("o", "BENCH_perf.json", "trajectory file to append to")
		check  = flag.Bool("check", false, "validate the trajectory file, compare the last two runs, and exit non-zero when the file is missing, unparsable, empty — or records a statistically significant regression")
		margin = flag.Float64("margin", 0.30, "check: minimum relative ns/op increase to call a regression (on top of disjoint confidence intervals)")
	)
	flag.Parse()

	if *check {
		if err := checkTrajectory(*out, *margin); err != nil {
			fatal("%v", err)
		}
		return
	}

	run := Run{
		Label:  *label,
		Date:   time.Now().UTC().Format(time.RFC3339),
		Commit: gitCommit(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	sawFail := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // stay tee-able: pass the raw output through
		// `make` pipes without pipefail, so go test's exit code is lost:
		// detect failure from the output instead and refuse to record a
		// partial (or failing) run as a trajectory point.
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			sawFail = true
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			// A multi-package run records every package once, in run order
			// (one package may come from several go test passes).
			pkg := strings.TrimPrefix(line, "pkg: ")
			if slices.Contains(strings.Fields(run.Package), pkg) {
				break
			}
			if run.Package != "" {
				run.Package += " "
			}
			run.Package += pkg
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				run.Benchmarks = append(run.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal("reading stdin: %v", err)
	}
	if sawFail {
		fatal("benchmark run FAILed; not recording it in the trajectory")
	}
	if len(run.Benchmarks) == 0 {
		fatal("no benchmark lines found on stdin (pipe `go test -bench` output in)")
	}

	var file File
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fatal("existing %s is not a trajectory file: %v", *out, err)
		}
	} else if !os.IsNotExist(err) {
		fatal("reading %s: %v", *out, err)
	}
	file.Schema = schema
	file.Runs = append(file.Runs, run)

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal("encoding: %v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended run %q (%d benchmarks) to %s (%d runs total)\n",
		run.Label, len(run.Benchmarks), *out, len(file.Runs))
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkFig8_QuerySE-8   2224640   159.0 ns/op   235.0 ssads   64 B/op   2 allocs/op
//
// The "-8" GOMAXPROCS suffix is stripped from the name so runs on different
// machines stay comparable by name.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iters: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, true
}

// summary is the pooled statistic for one benchmark name within one run:
// sample count, mean and the 95% confidence-interval half-width (Student's
// t for small n). With go test -count=1 every name has one sample and the
// interval collapses to zero width — callers must treat n==1 as
// "no spread information", not "perfectly precise".
type summary struct {
	N    int
	Mean float64
	CI   float64
}

// tValue95 approximates the two-sided 95% Student's t critical value for
// n-1 degrees of freedom — exact for the tiny n values -count produces,
// asymptoting to the normal 1.96 above ten samples.
func tValue95(n int) float64 {
	t := []float64{0, 0, 12.71, 4.30, 3.18, 2.78, 2.57, 2.45, 2.36, 2.31, 2.26}
	if n < len(t) {
		return t[n]
	}
	return 1.96 + 9.6/float64(n) // 2.23 at n=11 tapering toward 1.96
}

// summarize pools one run's samples for a single benchmark name.
func summarize(samples []float64) summary {
	n := len(samples)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n < 2 {
		return summary{N: n, Mean: mean}
	}
	var sq float64
	for _, s := range samples {
		sq += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(sq / float64(n-1))
	return summary{N: n, Mean: mean, CI: tValue95(n) * sd / math.Sqrt(float64(n))}
}

// poolRun groups a run's benchmark lines by name (go test -count=N emits
// one line per repetition) and summarizes each name's ns/op samples.
func poolRun(run Run) map[string]summary {
	byName := map[string][]float64{}
	for _, b := range run.Benchmarks {
		byName[b.Name] = append(byName[b.Name], b.NsPerOp)
	}
	pooled := make(map[string]summary, len(byName))
	for name, samples := range byName {
		pooled[name] = summarize(samples)
	}
	return pooled
}

// compareRuns prints a benchstat-style ns/op comparison of the two most
// recent runs and returns the names that regressed: mean slower by more
// than margin with disjoint confidence intervals. When gate is false
// (single-sample runs or runs from different CPUs, where ~2× differences
// are pure hardware) the table still prints but nothing can regress.
func compareRuns(prev, last Run, margin float64, gate bool) []string {
	old, cur := poolRun(prev), poolRun(last)
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Printf("benchjson: runs %q and %q share no benchmarks; nothing to compare\n", prev.Label, last.Label)
		return nil
	}
	mode := "gating"
	if !gate {
		mode = "informational"
	}
	fmt.Printf("benchjson: %s vs %s ns/op (%s, margin %.0f%%)\n", prev.Label, last.Label, mode, margin*100)
	var regressed []string
	for _, name := range names {
		o, c := old[name], cur[name]
		delta := (c.Mean - o.Mean) / o.Mean
		// Disjoint intervals: the closest plausible means still disagree.
		disjoint := o.Mean+o.CI < c.Mean-c.CI || c.Mean+c.CI < o.Mean-o.CI
		verdict := "~"
		switch {
		case gate && c.N > 1 && o.N > 1 && disjoint && delta > margin:
			verdict = "REGRESSION"
			regressed = append(regressed, name)
		case disjoint && delta < -margin:
			verdict = "improved"
		case c.N == 1 || o.N == 1:
			verdict = "n=1"
		}
		fmt.Printf("  %-46s %s -> %s  %+6.1f%%  %s\n",
			name, formatStat(o), formatStat(c), delta*100, verdict)
	}
	return regressed
}

// formatStat renders "mean ±ci (n=K)" with the interval omitted at n=1.
func formatStat(s summary) string {
	if s.N < 2 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g ±%.2g (n=%d)", s.Mean, s.CI, s.N)
}

// checkTrajectory is the CI gate for the committed perf trajectory: a
// missing, unparsable, wrong-schema or empty file fails loudly — a corrupt
// BENCH_perf.json must never pass silently — and the last two runs are
// compared statistically (see compareRuns). It returns the failure.
func checkTrajectory(path string, margin float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trajectory %s unreadable: %v", path, err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("trajectory %s is not valid JSON: %v", path, err)
	}
	if file.Schema != schema {
		return fmt.Errorf("trajectory %s has schema %q, want %q", path, file.Schema, schema)
	}
	if len(file.Runs) == 0 {
		return fmt.Errorf("trajectory %s records no runs", path)
	}
	for i, run := range file.Runs {
		if run.Label == "" {
			return fmt.Errorf("trajectory %s: run %d has no label", path, i)
		}
		if len(run.Benchmarks) == 0 {
			return fmt.Errorf("trajectory %s: run %q records no benchmarks", path, run.Label)
		}
	}
	if len(file.Runs) >= 2 {
		prev, last := file.Runs[len(file.Runs)-2], file.Runs[len(file.Runs)-1]
		// Gate only same-machine runs: across CPUs the suite moves ~2× on
		// hardware alone (ROADMAP), which no per-benchmark margin absorbs.
		gate := prev.CPU != "" && prev.CPU == last.CPU
		if regressed := compareRuns(prev, last, margin, gate); len(regressed) > 0 {
			return fmt.Errorf("run %q regressed vs %q on: %s", last.Label, prev.Label, strings.Join(regressed, ", "))
		}
	}
	labels := make([]string, len(file.Runs))
	for i, run := range file.Runs {
		labels[i] = run.Label
	}
	fmt.Printf("benchjson: %s ok (%d runs: %s)\n", path, len(file.Runs), strings.Join(labels, ", "))
	return nil
}

// gitCommit best-effort resolves the working tree's HEAD; empty when git (or
// a repository) is unavailable.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
