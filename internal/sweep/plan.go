// Package sweep plans and executes continuation-ordered parameter sweeps:
// batches of related solves whose points are ordered so each one starts next
// to an already-solved neighbor, letting the executor thread warm-start
// state (the converged orbit — see core.WarmStart) down the chain instead of
// cold-starting every point.
//
// The package is deliberately solver-agnostic: a Plan is just an ordered
// list of points, and Run drives an opaque Solver over it. The HTTP layer
// (internal/serve) and the offline tuning driver (cmd/sweep) share the same
// planner and executor.
package sweep

import (
	"fmt"
	"math"
	"sort"
)

// Point is one solve of a sweep. Seq is the position in continuation order
// (the order points are solved and emitted); Index is the position in the
// caller's original input, so clients can map streamed results back to the
// values they asked for. Exactly one of Value (numeric parameters) or Label
// (corner sets) is meaningful, per the plan's kind.
type Point struct {
	Seq   int
	Index int
	Value float64
	Label string
}

// Plan is an ordered sweep: Points[i].Seq == i, arranged so consecutive
// points are nearest parameter neighbors (monotone for numeric sweeps).
type Plan struct {
	Points []Point
}

// N returns the number of points.
func (p *Plan) N() int { return len(p.Points) }

// Grid plans a uniform numeric sweep of n points over [from, to]. The grid
// is generated ascending — already continuation order — regardless of the
// sign of to-from in the request; callers wanting descending output use the
// Index field to restore request order.
func Grid(from, to float64, n int) (*Plan, error) {
	if n < 2 {
		return nil, fmt.Errorf("sweep: grid needs at least 2 points, got %d", n)
	}
	if !finite(from) || !finite(to) {
		return nil, fmt.Errorf("sweep: grid bounds must be finite")
	}
	if from == to {
		return nil, fmt.Errorf("sweep: grid bounds coincide (%g)", from)
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	p := &Plan{Points: make([]Point, n)}
	for i := 0; i < n; i++ {
		v := lo + (hi-lo)*float64(i)/float64(n-1)
		// Index preserves the caller's orientation: for a descending request
		// the first requested point is the last solved.
		idx := i
		if from > to {
			idx = n - 1 - i
		}
		p.Points[i] = Point{Seq: i, Index: idx, Value: v}
	}
	return p, nil
}

// Values plans a sweep over an explicit value list (Monte Carlo draws, a
// measured bias list). The points are solved in ascending order — for a 1-D
// parameter, the sorted order is exactly the shortest nearest-neighbor chain,
// which maximizes warm-start locality — while Index remembers each value's
// position in the request.
func Values(vs []float64) (*Plan, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("sweep: empty value list")
	}
	pts := make([]Point, len(vs))
	for i, v := range vs {
		if !finite(v) {
			return nil, fmt.Errorf("sweep: value[%d] = %v is not finite", i, v)
		}
		pts[i] = Point{Index: i, Value: v}
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].Value < pts[b].Value })
	for i := 1; i < len(pts); i++ {
		if pts[i].Value == pts[i-1].Value {
			return nil, fmt.Errorf("sweep: duplicate value %g (positions %d and %d)",
				pts[i].Value, pts[i-1].Index, pts[i].Index)
		}
	}
	for i := range pts {
		pts[i].Seq = i
	}
	return &Plan{Points: pts}, nil
}

// Corners plans a sweep over named configurations (process corners, inline
// netlist variants). There is no metric between corners, so request order is
// kept — the caller clusters related corners adjacently if warm-start
// locality matters.
func Corners(names []string) (*Plan, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("sweep: empty corner list")
	}
	seen := make(map[string]int, len(names))
	pts := make([]Point, len(names))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("sweep: corner[%d] has an empty name", i)
		}
		if j, dup := seen[name]; dup {
			return nil, fmt.Errorf("sweep: duplicate corner %q (positions %d and %d)", name, j, i)
		}
		seen[name] = i
		pts[i] = Point{Seq: i, Index: i, Label: name}
	}
	return &Plan{Points: pts}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
