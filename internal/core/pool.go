package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the worker count used when Options.Workers is zero.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// parfor runs fn(i) for every i in [0, n) using at most workers goroutines.
// workers <= 1 (or n == 1) degenerates to a plain loop on the calling
// goroutine. It serves the query-side fan-outs; construction shares one
// budget across its phases instead (see budget.parfor). A fan-out that
// shares no slots does not need the budget's channel and per-claim recruit:
// as newBudget(workers).parfor, BenchmarkQueryMatrix (32×32, 2 vCPUs) took
// 6 → 9 allocs/op, 776 → 904 B/op and ~78 → ~91 µs/op (slower in 8 of 8
// alternating runs).
//
// Callers write results into index-addressed slices and merge them on the
// calling goroutine after parfor returns, in the same order the sequential
// code would have produced them. Work is handed out through an atomic
// counter, so the only nondeterminism is *which goroutine* computes an
// index, never what value lands at it.
func parfor(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// budget is one build's worker budget: the goroutine that starts the build
// plus at most workers-1 helpers, shared by every parallel phase of every
// member however they nest. A goroutine runs build work only while it holds
// a slot (the starting goroutine holds one implicitly), so a build never
// runs more than workers SSADs at once, and a slot one phase gives back is
// taken up by whichever phase claims its next item first.
type budget struct {
	helpers chan struct{} // one token per running helper goroutine
}

// newBudget returns the budget of a build with the given worker count
// (0 means defaultWorkers).
func newBudget(workers int) *budget {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &budget{helpers: make(chan struct{}, workers-1)}
}

// parallel reports whether the budget can ever run two goroutines at once.
func (b *budget) parallel() bool { return cap(b.helpers) > 0 }

// parfor runs fn(i) for every i in [0, n) on the calling goroutine and any
// helpers the budget can spare. Each claim of an item recruits one more
// helper when a slot is free and items remain, so helpers join as other
// phases release their slots; a helper leaves, returning its slot, when no
// item is left. A budget of one worker never spawns a goroutine.
//
// The determinism contract is parfor's: results go into index-addressed
// slices, and only which goroutine computes an index varies.
func (b *budget) parfor(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var work func()
	work = func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n && b.tryAcquire() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer b.release()
					work()
				}()
			}
			fn(i)
		}
	}
	work()
	wg.Wait()
}

func (b *budget) tryAcquire() bool {
	select {
	case b.helpers <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *budget) release() { <-b.helpers }

// buildCounters aggregates the construction counters that parallel phases
// update concurrently. Build snapshots them into the plain-int BuildStats
// once construction is done, so the public stats stay a simple value type.
type buildCounters struct {
	ssadCalls         atomic.Int64
	resolverFallbacks atomic.Int64
	pairsConsidered   atomic.Int64
}
