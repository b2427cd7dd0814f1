package krylov

import (
	"errors"
	"fmt"

	"repro/internal/la"
	"repro/internal/par"
)

// DenseOp adapts *la.Dense to the Operator interface.
type DenseOp struct{ M *la.Dense }

// Dim returns the operator dimension.
func (d DenseOp) Dim() int { return d.M.Rows }

// Apply computes y = M x.
func (d DenseOp) Apply(x, y []float64) { d.M.MulVec(x, y) }

// blockJacobiPrec inverts contiguous diagonal blocks with dense LU.
type blockJacobiPrec struct {
	offsets []int // block start indices, terminated by n
	facts   []*la.LU
}

// blockGrain returns how many diagonal blocks one parallel chunk handles,
// as a function of the block size only (worker-count independent layout).
func blockGrain(blockSize int) int {
	g := 256 / (blockSize + 1)
	if g < 1 {
		g = 1
	}
	return g
}

// NewBlockJacobiFromBlocks builds a block-Jacobi preconditioner from
// pre-assembled contiguous diagonal blocks (block b covers the unknowns
// after blocks 0..b-1). Matrix-free operators use this: they can produce
// their diagonal blocks directly from per-point device Jacobians without
// ever assembling the full matrix. The blocks are not modified; factoring
// spreads over the worker pool with a chunk layout that depends on the block
// size only, so the result is worker-count independent.
func NewBlockJacobiFromBlocks(blocks []*la.Dense) (Preconditioner, error) {
	if len(blocks) == 0 {
		return nil, errors.New("krylov: block-Jacobi needs at least one block")
	}
	p := &blockJacobiPrec{
		offsets: make([]int, len(blocks)+1),
		facts:   make([]*la.LU, len(blocks)),
	}
	for b, blk := range blocks {
		if blk.Rows != blk.Cols {
			return nil, fmt.Errorf("krylov: block %d is %dx%d, want square", b, blk.Rows, blk.Cols)
		}
		p.offsets[b+1] = p.offsets[b] + blk.Rows
	}
	err := par.ForErr(len(blocks), blockGrain(blocks[0].Rows), func(lo, hi int) error {
		for b := lo; b < hi; b++ {
			f, err := la.FactorLU(blocks[b])
			if err != nil {
				return fmt.Errorf("krylov: block [%d:%d): %w", p.offsets[b], p.offsets[b+1], err)
			}
			p.facts[b] = f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *blockJacobiPrec) Precondition(r, z []float64) {
	blockSize := 1
	if len(p.facts) > 0 {
		blockSize = p.offsets[1] - p.offsets[0]
	}
	par.For(len(p.facts), blockGrain(blockSize), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			f := p.facts[b]
			bLo, bHi := p.offsets[b], p.offsets[b+1]
			f.Solve(r[bLo:bHi], z[bLo:bHi])
		}
	})
}
