package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/geodesic"
	"seoracle/internal/server"
)

// stageTimes are one set-up's wall times. listen covers NewWithOptions,
// the loopback listener and the first answered request.
type stageTimes struct {
	total, build, convert, encode, load, listen time.Duration
}

// deployment is one built, encoded, loaded and served index.
type deployment struct {
	idx   core.DistanceIndex
	image []byte // the encoded container the index was loaded from
	built *core.ShardedIndex
	stats core.BuildStats // summed over members for a multi container
	load  core.LoadOptions
	// decoded is the built members' heap bytes, the size the budget is
	// measured against.
	decoded int64
	live    *endpoint
}

// setup runs one full set-up from the generated terrain and POIs to the
// first answered request, recording each stage as a child span of one
// "setup" span.
func setup(c config, in *inputs, tr *tracer) (*deployment, stageTimes, error) {
	var st stageTimes
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	stage := func(name string, d *time.Duration, f func() error) error {
		sp := tr.begin(name, root, -1)
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		tr.end(sp)
		return err
	}
	t0 := time.Now()
	eng := geodesic.NewExact(in.mesh)
	dep := &deployment{}
	var toEncode interface{ EncodeTo(io.Writer) error }
	opt := core.Options{Epsilon: c.eps, Seed: 1}

	if c.shards == 0 {
		var o *core.Oracle
		if err := stage("build.build", &st.build, func() (err error) {
			o, err = core.Build(eng, in.pois, opt)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("build: %w", err)
		}
		dep.stats = o.BuildStats()
		if err := stage("build.convert", &st.convert, func() error {
			f, err := core.ConvertFlat(o)
			toEncode = f
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("flat convert: %w", err)
		}
	} else {
		if err := stage("build.build", &st.build, func() (err error) {
			dep.built, err = core.BuildShardedLOD(eng, in.mesh, in.pois, c.shards, core.LODOptions{
				Options: opt, Levels: 2, SitesPerEdge: c.sitesPerEdge,
			})
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("build: %w", err)
		}
		dep.stats, dep.decoded, dep.load.MemBudget = lodStats(dep.built)
		toEncode = dep.built
	}

	var buf bytes.Buffer
	if err := stage("build.encode", &st.encode, func() error { return toEncode.EncodeTo(&buf) }); err != nil {
		return nil, st, fmt.Errorf("encode: %w", err)
	}
	dep.image = buf.Bytes()
	if err := stage("build.load", &st.load, func() (err error) {
		dep.idx, _, err = core.LoadBytesOpts(dep.image, nil, dep.load)
		return err
	}); err != nil {
		return nil, st, fmt.Errorf("load: %w", err)
	}
	if err := stage("build.listen", &st.listen, func() (err error) {
		dep.live, err = serve(server.NewWithOptions(dep.idx, server.Options{CacheSize: c.cacheSize}).Handler())
		if err != nil {
			return err
		}
		return dep.live.healthz()
	}); err != nil {
		if dep.live != nil {
			dep.live.close()
		}
		return nil, st, fmt.Errorf("serve: %w", err)
	}
	st.total = time.Since(t0)
	return dep, st, nil
}

// lodStats sums the members' build statistics and heap bytes and derives
// the memory budget: every member but the smallest fine tile. Any eight of
// the nine tiles then fit beside the coarse member, so the strict LRU
// evicts a tile on every fault and the coarse member only when all tiles
// were touched since the last coarse query.
func lodStats(sh *core.ShardedIndex) (core.BuildStats, int64, int64) {
	var sum core.BuildStats
	var coarse, tiles int64
	smallest := int64(math.MaxInt64)
	for _, m := range sh.Members() {
		var bs core.BuildStats
		switch v := m.Index.(type) {
		case *core.Oracle:
			bs = v.BuildStats()
			tiles += v.MemoryBytes()
			smallest = min(smallest, v.MemoryBytes())
		case *core.SiteOracle:
			bs = v.Inner().BuildStats()
			coarse += v.MemoryBytes()
		}
		sum.Pairs += bs.Pairs
		sum.SSADCalls += bs.SSADCalls
		sum.TreeTime += bs.TreeTime
		sum.EdgeTime += bs.EdgeTime
		sum.PairTime += bs.PairTime
		sum.HashTime += bs.HashTime
	}
	return sum, coarse + tiles, coarse + tiles - smallest
}

// endpoint is a handler served on a loopback listener.
type endpoint struct {
	hs   *http.Server
	addr string
	done chan error
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: time.Minute},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ep.done <- ep.hs.Serve(ln) }()
	return ep, nil
}

// healthz sends the first request and waits for its answer.
func (ep *endpoint) healthz() error {
	c := newClient(ep, nil)
	defer c.close()
	status, err := c.get("/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/healthz answered %d", status)
	}
	return nil
}

// close stops the server and waits until its Serve loop has returned.
func (ep *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ep.hs.Shutdown(ctx); err != nil {
		_ = ep.hs.Close() // Shutdown timed out; force the connections closed
	}
	if err := <-ep.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("perfbench: server stopped with %v\n", err)
	}
}
