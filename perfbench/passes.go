package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// coreCall is one request answered by a direct call on the loaded index,
// with the call's wall time and the answer's digest.
type coreCall struct {
	ns       int64
	digest   uint64
	size     int // pairs, cells or path vertices
	tileDiff core.TileStats
	// coarseFault is set when the call faulted a coarse member in.
	coarseFault bool
}

// callCore answers r through the index's public entry points, the ones the
// server calls for the same endpoint.
func callCore(idx core.DistanceIndex, in *inputs, r *request) (coreCall, error) {
	ctx := context.Background()
	h := newAnswerHash()
	var cc coreCall
	t0 := time.Now()
	switch r.kind {
	case kindQuery:
		d, err := idx.Query(r.s, r.t)
		cc.ns = int64(time.Since(t0))
		if err != nil {
			return cc, err
		}
		h.add(d)
		cc.size = 1
	case kindBatch:
		b := in.batches[r.body]
		dst, err := core.QueryBatchCtx(ctx, idx, b.pairs, nil)
		cc.ns = int64(time.Since(t0))
		if err != nil {
			return cc, err
		}
		for _, d := range dst {
			h.add(d)
		}
		cc.size = len(dst)
	case kindMatrix:
		m := in.matrices[r.body]
		dst, err := core.QueryMatrixCtx(ctx, idx, m.sources, m.targets, nil)
		cc.ns = int64(time.Since(t0))
		if err != nil {
			return cc, err
		}
		for _, d := range dst {
			h.add(d)
		}
		cc.size = len(dst)
	case kindPath:
		pi, ok := idx.(core.PathIndex)
		if !ok {
			return cc, fmt.Errorf("index reports no paths")
		}
		path, d, err := core.QueryPathCtx(ctx, pi, r.s, r.t)
		cc.ns = int64(time.Since(t0))
		if err != nil {
			return cc, err
		}
		for _, p := range path {
			h.add(p.P.X)
			h.add(p.P.Y)
			h.add(p.P.Z)
		}
		h.add(d)
		cc.size = len(path)
	}
	cc.digest = h.sum()
	return cc, nil
}

// setWants stores the direct call's answer digest in every request. On
// bulk-mix this also warms the index's path segment cache before timing.
func setWants(idx core.DistanceIndex, in *inputs) error {
	for _, reqs := range [][]request{in.warm, in.timed} {
		for i := range reqs {
			cc, err := callCore(idx, in, &reqs[i])
			if err != nil {
				return fmt.Errorf("direct %s call: %w", kindNames[reqs[i].kind], err)
			}
			reqs[i].want = cc.digest
		}
	}
	return nil
}

// exactCheck compares a seeded sample of id-pair answers with geodesic.Exact:
// each must be within (1±ε). On a multi container only same-tile pairs are
// sampled, since portal and coarse routes carry extra additive slack. It
// returns the number of answers outside the bound and a description of the
// worst one.
func exactCheck(c config, in *inputs, idx core.DistanceIndex, seed int64) (int, string, error) {
	eng := geodesic.NewExact(in.mesh)
	rng := rand.New(rand.NewSource(seed*31 + 5))
	bad, worst := 0, 0.0
	var worstMsg string
	for checked, tries := 0, 0; checked < c.exactN; tries++ {
		if tries > 1000*c.exactN {
			return 0, "", fmt.Errorf("found only %d same-tile pairs to check", checked)
		}
		r := in.timed[rng.Intn(len(in.timed))]
		s, t := r.s, r.t
		if r.kind != kindQuery && r.kind != kindPath {
			s, t = int32(rng.Intn(c.pois)), int32(rng.Intn(c.pois))
		}
		if s == t || (in.tileOf != nil && in.tileOf[s] != in.tileOf[t]) {
			continue
		}
		checked++
		got, err := idx.Query(s, t)
		if err != nil {
			return 0, "", err
		}
		exact := eng.DistancesTo(in.points[s], []terrain.SurfacePoint{in.points[t]}, geodesic.Stop{})[0]
		rel := math.Abs(got-exact) / exact
		if rel > c.eps*(1+1e-9) {
			bad++
		}
		if rel >= worst {
			worst = rel
			worstMsg = fmt.Sprintf("pair (%d,%d): oracle %.6g, exact %.6g, relative error %.4f (ε %.2f)", s, t, got, exact, rel, c.eps)
		}
	}
	return bad, worstMsg, nil
}

// inprocPass serves the warm-up and timed requests through the handler's
// ServeHTTP with a reusable recorder, so no transport is involved. It
// returns each timed request's handler time and the heap bytes the handler
// allocated per timed request. Requests are built a chunk at a time outside
// the measured calls.
func inprocPass(h http.Handler, in *inputs, tr *tracer) ([]int64, float64, outcome, error) {
	rec := &recorder{header: http.Header{}}
	var o outcome
	serveAll := func(reqs []request, timed bool) ([]int64, uint64, error) {
		var ns []int64
		if timed {
			ns = make([]int64, len(reqs))
		}
		var alloc uint64
		root := int32(-1)
		if timed {
			root = tr.begin("pass.server", -1, -1)
			defer tr.end(root)
		}
		const chunk = 256
		hrs := make([]*http.Request, 0, chunk)
		for lo := 0; lo < len(reqs); lo += chunk {
			hi := min(lo+chunk, len(reqs))
			hrs = hrs[:0]
			for i := lo; i < hi; i++ {
				hr, err := newHTTPRequest(in, &reqs[i])
				if err != nil {
					return nil, 0, err
				}
				hrs = append(hrs, hr)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for j, hr := range hrs {
				i := lo + j
				rec.reset()
				var sp int32 = -1
				if timed {
					sp = tr.begin("server.serve_http", root, int32(i))
				}
				t0 := time.Now()
				h.ServeHTTP(rec, hr)
				d := time.Since(t0)
				tr.end(sp)
				if timed {
					ns[i] = int64(d)
				}
				o.attempted++
				switch {
				case rec.code >= 500:
					o.status5xx++
					o.note(fmt.Sprintf("in-process %d: %s", rec.code, rec.body))
				case rec.code >= 400:
					o.status4xx++
					o.note(fmt.Sprintf("in-process %d: %s", rec.code, rec.body))
				case bodyDigest(reqs[i].kind, rec.body) != reqs[i].want:
					o.wrong++
					o.note(fmt.Sprintf("in-process %s answer differs from the direct call", kindNames[reqs[i].kind]))
				}
			}
			runtime.ReadMemStats(&ms1)
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
		}
		return ns, alloc, nil
	}
	if _, _, err := serveAll(in.warm, false); err != nil {
		return nil, 0, o, err
	}
	tr.reserve(1+len(in.timed), 0) // pass.server and a server.serve_http span per request
	ns, alloc, err := serveAll(in.timed, true)
	if err != nil {
		return nil, 0, o, err
	}
	return ns, float64(alloc) / float64(len(in.timed)), o, nil
}

// newHTTPRequest parses r's request bytes as the server would, so the
// in-process pass hands ServeHTTP what the listener would have.
func newHTTPRequest(in *inputs, r *request) (*http.Request, error) {
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(r.appendHTTP(nil, in, -1))))
}

// corePass replays the warm-up and timed requests as direct calls on idx.
// On a multi container each call is classified by the TileStats counters
// it moved (read outside the timed call).
func corePass(idx core.DistanceIndex, in *inputs, tr *tracer) ([]coreCall, error) {
	sh, _ := idx.(*core.ShardedIndex)
	var coarse []core.ShardMember
	if sh != nil {
		for _, m := range sh.Members() {
			if strings.HasPrefix(m.Name, "coarse-") {
				coarse = append(coarse, m)
			}
		}
	}
	// A lazily loaded member's MemoryBytes is a small constant until it is
	// decoded, so the coarse members' sum rises exactly when one faults in.
	coarseBytes := func() int64 {
		var b int64
		for _, m := range coarse {
			b += m.Index.MemoryBytes()
		}
		return b
	}
	for i := range in.warm {
		if _, err := callCore(idx, in, &in.warm[i]); err != nil {
			return nil, err
		}
	}
	tr.reserve(1+len(in.timed), 0) // pass.core and a core span per request
	root := tr.begin("pass.core", -1, -1)
	defer tr.end(root)
	calls := make([]coreCall, len(in.timed))
	for i := range in.timed {
		r := &in.timed[i]
		var before core.TileStats
		var coarse0 int64
		if sh != nil {
			before, _ = sh.TileStats()
			coarse0 = coarseBytes()
		}
		sp := tr.begin(coreSpanNames[r.kind], root, int32(i))
		cc, err := callCore(idx, in, r)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("direct %s call: %w", kindNames[r.kind], err)
		}
		if cc.digest != r.want {
			return nil, fmt.Errorf("direct %s call %d answered differently on replay", kindNames[r.kind], i)
		}
		if sh != nil {
			after, _ := sh.TileStats()
			cc.tileDiff = core.TileStats{
				PortalQueries: after.PortalQueries - before.PortalQueries,
				CoarseQueries: after.CoarseQueries - before.CoarseQueries,
				Faults:        after.Faults - before.Faults,
				Evictions:     after.Evictions - before.Evictions,
				ResidentBytes: after.ResidentBytes,
			}
			cc.coarseFault = cc.tileDiff.Faults > 0 && coarseBytes() > coarse0
		}
		calls[i] = cc
	}
	return calls, nil
}

var coreSpanNames = [...]string{"core.query", "core.batch", "core.matrix", "core.path"}
