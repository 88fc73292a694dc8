// Command seconvert rewrites an existing index container into the
// zero-parse flat layout without rebuilding it: an se container (or a
// multi of se shards) is re-laid into the flat layout, which seserve
// queries straight from the memory-mapped file — O(1) cold start, no
// decode copies, and a smaller file (cold sections are deflated). An a2a
// container written before its inner oracle was flat is upgraded the same
// way: its se body becomes a flat body read in place, beside the same mesh
// and site tables. A multi container's coarse members are upgraded with its
// tiles. Answers are bit-identical to the se layout's.
//
// Usage:
//
//	seconvert -in oracle.sedx -out oracle.flat.sedx
//
// The input may be any container sebuild writes; the dynamic kind has no
// flat form and is rejected. The output is written atomically: to a temp
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
		in  = flag.String("in", "", "input index container (any layout)")
		out = flag.String("out", "", "output container path")
	)
	flag.Parse()

	if *in == "" || *out == "" {
		fatal("need -in and -out")
	}
	idx, flat, inSize, outSize, err := convert(*in, *out)
	if err != nil {
		fatal("%v", err)
	}
	st := flat.Stats()
	fmt.Printf("converted: kind=%s -> %s, %d points, eps=%g -> %s\n",
		idx.Stats().Kind, st.Kind, st.Points, st.Epsilon, *out)
	fmt.Printf("size: %d -> %d bytes (%.1f%%), %.1f B/point\n",
		inSize, outSize, 100*float64(outSize)/float64(inSize),
		float64(outSize)/float64(max(st.Points, 1)))
}

// convert loads the container at in, re-lays it flat and writes it
// atomically to out. It returns the loaded and the converted index with the
// input and output file sizes.
func convert(in, out string) (idx, flat core.DistanceIndex, inSize, outSize int64, err error) {
	idx, _, err = server.LoadIndexOpts(in, false, core.LoadOptions{})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("loading %s: %w", in, err)
	}
	inStat, err := os.Stat(in)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	flat, err = core.ConvertFlat(idx)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("converting %s: %w", in, err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp*")
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := flat.EncodeTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, 0, 0, fmt.Errorf("writing flat container: %w", err)
	}
	outSize, err = tmp.Seek(0, 1)
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), out)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, nil, 0, 0, fmt.Errorf("writing %s: %w", out, err)
	}
	return idx, flat, inStat.Size(), outSize, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "seconvert: "+format+"\n", args...)
	os.Exit(1)
}
