// Command seconvert rewrites an existing index container into another
// on-disk layout without rebuilding it. Its one conversion today is
// -layout=flat: an se container (or a multi of se shards) is re-laid into
// the zero-parse flat layout, which seserve queries straight from the
// memory-mapped file — O(1) cold start, no decode copies, and a smaller
// file (cold sections are deflated). Answers are bit-identical to the
// decoded layout's.
//
// Usage:
//
//	seconvert -in oracle.sedx -out oracle.flat.sedx [-layout flat]
//
// The input may be any container sebuild writes; kinds without a flat form
// (a2a, dynamic) are rejected. The output is written atomically: to a temp
// file in the destination directory, then renamed over -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"seoracle/internal/core"
	"seoracle/internal/server"
)

func main() {
	var (
		in     = flag.String("in", "", "input index container (any layout)")
		out    = flag.String("out", "", "output container path")
		layout = flag.String("layout", "flat", "target layout (only \"flat\")")
	)
	flag.Parse()

	if *in == "" || *out == "" {
		fatal("need -in and -out")
	}
	if *layout != "flat" {
		fatal("unknown -layout %q (want flat)", *layout)
	}

	idx, _, err := server.LoadIndexOpts(*in, false, core.LoadOptions{})
	if err != nil {
		fatal("loading %s: %v", *in, err)
	}
	inStat, err := os.Stat(*in)
	if err != nil {
		fatal("%v", err)
	}

	flat, err := core.ConvertFlat(idx)
	if err != nil {
		fatal("converting %s: %v", *in, err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(*out), filepath.Base(*out)+".tmp*")
	if err != nil {
		fatal("%v", err)
	}
	if err := flat.EncodeTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fatal("writing flat container: %v", err)
	}
	outSize, err := tmp.Seek(0, 1)
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), *out)
	}
	if err != nil {
		os.Remove(tmp.Name())
		fatal("writing %s: %v", *out, err)
	}

	st := flat.Stats()
	fmt.Printf("converted: kind=%s -> flat, %d points, eps=%g -> %s\n",
		idx.Stats().Kind, st.Points, st.Epsilon, *out)
	fmt.Printf("size: %d -> %d bytes (%.1f%%), %.1f B/point\n",
		inStat.Size(), outSize, 100*float64(outSize)/float64(inStat.Size()),
		float64(outSize)/float64(max(st.Points, 1)))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "seconvert: "+format+"\n", args...)
	os.Exit(1)
}
