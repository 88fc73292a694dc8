package core

import (
	"context"
	"fmt"
	"sync"
)

// matrix.go — the many-to-many distance-matrix workload. A fleet-dispatch
// request ("which of my N drivers is closest to each of these M pickups?")
// is N×M point-to-point queries over one index; QueryMatrix answers them as
// one call, row-parallel over the same bounded worker pool the construction
// phases use, into a caller-owned row-major destination.

// MatrixIndex is a DistanceIndex that answers many-to-many distance
// matrices (the serving layer's /v1/matrix): QueryMatrix fills dst with the
// row-major len(sources)×len(targets) matrix of pairwise distances.
// Implemented by every engine; a sharded index answers every cell like its
// Query.
type MatrixIndex interface {
	DistanceIndex
	// QueryMatrix returns dst filled row-major: dst[i*len(targets)+j] is
	// the distance from sources[i] to targets[j]. When cap(dst) >=
	// len(sources)*len(targets) the destination is reused. The first
	// failing cell returns an error naming its row and column.
	QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error)
}

// matrixPairPool recycles the per-row pair scratch of MatrixViaBatch, so a
// steady matrix workload allocates only its destination.
var matrixPairPool = sync.Pool{New: func() any { return new([][2]int32) }}

// MatrixViaBatch is the shared QueryMatrix implementation: one QueryBatch
// call per source row, rows fanned out across the bounded worker pool
// (engines are safe for concurrent queries once built or loaded, and each
// row writes a disjoint dst slice, so the result is identical for any
// worker count). Row errors surface in row-major order: the first failing
// row wins, wrapped with its row index and the batch's column index.
func MatrixViaBatch(idx DistanceIndex, sources, targets []int32, dst []float64) ([]float64, error) {
	return matrixViaBatch(context.Background(), idx, sources, targets, dst)
}

// matrixViaBatch is the ctx-threaded implementation behind MatrixViaBatch
// and QueryMatrixCtx: every row checks cancellation before computing, so a
// cancelled matrix stops at row granularity (context.Background makes the
// check free for the plain entry point).
func matrixViaBatch(ctx context.Context, idx DistanceIndex, sources, targets []int32, dst []float64) ([]float64, error) {
	rows, cols := len(sources), len(targets)
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("core: matrix needs at least one source and one target (got %d×%d)", rows, cols)
	}
	if cap(dst) < rows*cols {
		dst = make([]float64, rows*cols)
	}
	dst = dst[:rows*cols]
	errs := make([]error, rows)
	parfor(defaultWorkers(), rows, func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		pairs := matrixPairPool.Get().(*[][2]int32)
		if cap(*pairs) < cols {
			*pairs = make([][2]int32, cols)
		}
		*pairs = (*pairs)[:cols]
		for j, t := range targets {
			(*pairs)[j] = [2]int32{sources[i], t}
		}
		_, errs[i] = idx.QueryBatch(*pairs, dst[i*cols:(i+1)*cols])
		matrixPairPool.Put(pairs)
	})
	for i, err := range errs {
		if err != nil {
			if IsContextErr(err) {
				return nil, fmt.Errorf("core: matrix cancelled at row %d: %w", i, err)
			}
			return nil, fmt.Errorf("core: matrix row %d: %w", i, err)
		}
	}
	return dst, nil
}

// QueryMatrix fills dst with the row-major site-id distance matrix through
// the inner SE oracle. Part of the MatrixIndex interface.
func (so *SiteOracle) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return MatrixViaBatch(so.oracle, sources, targets, dst)
}

// QueryMatrix fills dst with the row-major distance matrix over live public
// ids (tombstoned ids fail their row, like Query). Part of the MatrixIndex
// interface; rows touching overflow POIs are exact.
func (d *DynamicOracle) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return MatrixViaBatch(d, sources, targets, dst)
}

// QueryMatrix answers every cell like Query, so on a hierarchical index
// each cell takes its own route (same-member, portal-stitched or coarse) and
// a fleet matrix may span tiles freely. Part of the MatrixIndex interface.
func (sh *ShardedIndex) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	return MatrixViaBatch(sh, sources, targets, dst)
}
