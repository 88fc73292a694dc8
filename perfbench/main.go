// Command perfbench is the repository's serving benchmark. It generates a
// terrain, its POIs and a request stream from a seed, builds, encodes and
// loads an index through internal/core, serves it with internal/server on a
// loopback listener in the same process, and drives it with one closed-loop
// client whose requests were all generated before timing. Every answer
// is checked bit for bit against a direct call on the loaded index, and a
// seeded sample against geodesic.Exact.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload point-lookup --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run adds traced passes that time
// each layer's public calls and reports the per-layer metrics instead,
// writing its spans as JSON lines. NOTES.md describes the workloads, the
// metrics and what each per-layer metric is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the per-run arguments beyond the workload's config.
type options struct {
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "run length: the timed request count is seconds × the workload's fixed rate")
	trace := fs.Int("trace", 0, "1 adds the traced passes and reports the per-layer metrics")
	size := fs.String("size", "full", "full, or tiny for a seconds-long smoke run")
	traceOut := fs.String("trace-out", "", "span file (default .bench_build/perfbench-traces/<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, err := configFor(*name, *size)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
	if opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "perfbench-traces", c.name+".jsonl")
	}
	return execute(c, opt, stdout, stderr)
}

// setupError marks a run whose set-up failed before anything was served.
type setupError struct{ err error }

func (e *setupError) Error() string { return "setup failed: " + e.err.Error() }
func (e *setupError) Unwrap() error { return e.err }

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute measures one run and prints its report. A run that cannot
// measure (a failed set-up, say) prints a failed result and exits 1.
func execute(c config, opt options, stdout, stderr io.Writer) int {
	rep, err := measure(c, opt)
	if err != nil {
		var se *setupError
		kind := "run failed"
		if errors.As(err, &se) {
			kind = "setup failed"
		}
		fmt.Fprintf(stderr, "perfbench: %s: %s: %v\n", c.name, kind, err)
		fmt.Fprintf(stdout, "perfbench %s seed=%d: %s: %v\n", c.name, opt.seed, kind, err)
		printResult(stdout, result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		return 1
	}
	rep.print(stdout, c, opt)
	res := result{
		Correct:   rep.correct(),
		Attempted: rep.out.attempted,
		Failed:    rep.out.failed(),
		Metrics:   map[string]metric{},
	}
	set := endToEnd
	vals := rep.e2e
	if opt.trace {
		set, vals = perLayer, rep.layers
	}
	for _, d := range set {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		b = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintln(w, string(b))
}
