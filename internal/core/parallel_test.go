package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// The determinism contract of Options.Workers: every worker count must
// produce a byte-identical serialized oracle and identical construction
// counters, for both construction methods and both selection strategies.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	w := newTestWorld(t, 13, 30, 31)
	cases := []struct {
		name string
		opt  Options
	}{
		{"random", Options{Epsilon: 0.2, Seed: 33}},
		{"greedy", Options{Epsilon: 0.2, Seed: 33, Selection: SelectGreedy}},
		{"naive", Options{Epsilon: 0.25, Seed: 33, NaivePairDistances: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			var wantStats BuildStats
			for _, workers := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Workers = workers
				o := w.build(t, opt)
				var buf bytes.Buffer
				if err := o.EncodeTo(&buf); err != nil {
					t.Fatalf("workers=%d: EncodeTo: %v", workers, err)
				}
				st := o.BuildStats()
				if workers == 1 {
					want = buf.Bytes()
					wantStats = st
					continue
				}
				if !bytes.Equal(want, buf.Bytes()) {
					t.Errorf("workers=%d: EncodeTo output differs from workers=1", workers)
				}
				if st.SSADCalls != wantStats.SSADCalls ||
					st.Pairs != wantStats.Pairs ||
					st.PairsConsidered != wantStats.PairsConsidered ||
					st.ResolverFallbacks != wantStats.ResolverFallbacks ||
					st.EnhancedEdges != wantStats.EnhancedEdges {
					t.Errorf("workers=%d: counters %+v differ from workers=1 %+v", workers, st, wantStats)
				}
			}
		})
	}
}

// Seed-driven determinism must also hold run-to-run: the greedy strategy
// once seeded its cell heap from map iteration order, which randomized the
// build per process. Guard against regressions.
func TestGreedyBuildRepeatable(t *testing.T) {
	w := newTestWorld(t, 13, 30, 31)
	var first []byte
	for i := 0; i < 3; i++ {
		o := w.build(t, Options{Epsilon: 0.2, Seed: 33, Selection: SelectGreedy, Workers: 1})
		var buf bytes.Buffer
		if err := o.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d: greedy build differs run-to-run with a fixed seed", i)
		}
	}
}

// A parallel build must answer exactly like a sequential one.
func TestParallelBuildQueriesMatchSequential(t *testing.T) {
	w := newTestWorld(t, 11, 20, 37)
	seq := w.build(t, Options{Epsilon: 0.25, Seed: 39, Workers: 1})
	par := w.build(t, Options{Epsilon: 0.25, Seed: 39, Workers: 6})
	if err := par.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for s := range w.pois {
		for q := range w.pois {
			a, err1 := seq.Query(int32(s), int32(q))
			b, err2 := par.Query(int32(s), int32(q))
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("(%d,%d): sequential %v/%v vs parallel %v/%v", s, q, a, err1, b, err2)
			}
		}
	}
}

// A built oracle is shared state: hammer Query and QueryNaive from 16
// goroutines so `go test -race` can prove the query path is read-only.
func TestConcurrentQueryRace(t *testing.T) {
	w := newTestWorld(t, 13, 30, 41)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 43, Workers: 4})
	n := int32(len(w.pois))
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				s, q := rng.Int31n(n), rng.Int31n(n)
				a, err := o.Query(s, q)
				if err != nil {
					t.Errorf("Query(%d,%d): %v", s, q, err)
					return
				}
				b, err := o.QueryNaive(s, q)
				if err != nil || a != b {
					t.Errorf("QueryNaive(%d,%d): %v vs %v (%v)", s, q, a, b, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := o.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// SiteOracle queries mutate only the atomic local-regime counter; verify
// concurrent A2A queries are race-clean and agree with a sequential replay.
func TestConcurrentSiteOracleQuery(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 9, NY: 9, CellDX: 10, Amp: 15, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	so, err := BuildSiteOracle(eng, m, SiteOptions{Options: Options{Epsilon: 0.25, Seed: 49, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 24, 51)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(pois))
	for i := range pois {
		want[i], err = so.QueryPoints(pois[i], pois[len(pois)-1-i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pois {
				got, err := so.QueryPoints(pois[i], pois[len(pois)-1-i])
				if err != nil || got != want[i] {
					t.Errorf("query %d: %v (%v), want %v", i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if so.LocalQueries() < 0 {
		t.Error("negative local query count")
	}
}

// parfor is the fan-out primitive every parallel phase leans on; check the
// boundary cases (empty range, more workers than items, single worker).
func TestParforCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 64} {
			hits := make([]int32, n)
			parfor(workers, n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// budget.parfor must run every index exactly once, nested or not, and never
// run more than the budget's worker count at once.
func TestBudgetParforCoversAllIndicesWithinBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 64} {
			b := newBudget(workers)
			var inside peakCounter
			hits := make([]int32, n*n)
			b.parfor(n, func(i int) {
				b.parfor(n, func(j int) {
					inside.enter()
					hits[i*n+j]++
					inside.leave()
				})
			})
			for k, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, k, h)
				}
			}
			if p := inside.peak.Load(); p > int64(workers) {
				t.Fatalf("workers=%d n=%d: %d items ran at once", workers, n, p)
			}
		}
	}
}

// peakCounter tracks how many goroutines are inside a section at once and
// keeps the peak.
type peakCounter struct{ running, peak atomic.Int64 }

func (c *peakCounter) enter() {
	cur := c.running.Add(1)
	for m := c.peak.Load(); cur > m && !c.peak.CompareAndSwap(m, cur); m = c.peak.Load() {
	}
}

func (c *peakCounter) leave() { c.running.Add(-1) }

// inflightEngine counts the DistancesTo calls running at once.
type inflightEngine struct {
	geodesic.Engine
	peakCounter
}

func (e *inflightEngine) DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop geodesic.Stop) []float64 {
	e.enter()
	defer e.leave()
	return e.Engine.DistancesTo(src, targets, stop)
}

// A sharded build shares one worker budget across its members and their
// inner phases: it never runs more than Workers SSADs at once.
func TestShardedBuildsStayWithinWorkerBudget(t *testing.T) {
	w := newTestWorld(t, 9, 30, 91)
	for _, workers := range []int{1, 2, 3} {
		opt := LODOptions{Options: Options{Epsilon: 0.3, Seed: 92, Workers: workers}, Levels: 2, SitesPerEdge: 1}
		eng := &inflightEngine{Engine: w.eng}
		if _, err := BuildShardedLOD(eng, w.mesh, w.pois, 4, opt); err != nil {
			t.Fatalf("workers=%d: BuildShardedLOD: %v", workers, err)
		}
		if p := eng.peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: BuildShardedLOD ran %d SSADs at once", workers, p)
		}
		eng = &inflightEngine{Engine: w.eng}
		if _, err := BuildShardedSE(eng, w.mesh, w.pois, 4, opt.Options); err != nil {
			t.Fatalf("workers=%d: BuildShardedSE: %v", workers, err)
		}
		if p := eng.peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: BuildShardedSE ran %d SSADs at once", workers, p)
		}
	}
}
