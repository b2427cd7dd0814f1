package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Meta is the per-point execution metadata carried alongside the opaque
// result body: how the point was produced (Warm: "warm", "cold",
// "fallback"; Cache: "miss", "hit", "hit-disk", "coalesced" — vocabularies
// owned by the solver) and how long the solve took.
type Meta struct {
	Warm  string
	Cache string
	NS    int64
}

// Result is one emitted sweep record: the planned point, the solver's body
// (nil when Err is set) and metadata. Results are emitted in strict plan
// order regardless of lane interleaving.
type Result struct {
	Point
	Body []byte
	Meta Meta
	Err  error
}

// Solver produces one point. carry is the warm-start state threaded from the
// previous point of the same lane (nil at a chain start); the returned next
// becomes the carry for the following point. A solver that cannot or does
// not warm-start simply ignores carry and returns nil. On error the chain is
// reset: the next point of the lane starts cold.
type Solver func(ctx context.Context, p Point, carry any) (body []byte, meta Meta, next any, err error)

// Options configures Run.
type Options struct {
	// Lanes is the number of concurrent warm-start chains (default 1). The
	// points to run, [From, n), are split into Lanes contiguous segments so
	// each lane still walks neighboring points in continuation order.
	Lanes int
	// From is the first plan sequence number to run (default 0): points
	// before it (a resuming client's received prefix) are neither solved
	// nor emitted.
	From int
	// OnStart runs once, after at least one lane has been admitted by the
	// scheduler — the streaming handler commits its response header here,
	// when the sweep is guaranteed to make progress.
	OnStart func()
}

// ErrNoLanes reports that the scheduler admitted none of the sweep's lanes.
var ErrNoLanes = errors.New("sweep: no lanes admitted")

// Run executes the plan from opt.From on: Lanes worker chains solve
// contiguous segments of [From, n) concurrently, results are reordered and
// handed to emit in strict plan order, and the warm-start carry threads
// point-to-point within each lane.
//
// start admits one lane into the caller's scheduler (serve's bounded worker
// pool, or a bare goroutine for offline drivers); if it errors for every
// lane, Run returns the last error wrapped over ErrNoLanes so HTTP callers
// can surface saturation before committing a response.
//
// An emit error cancels outstanding lanes and is returned. A canceled
// context abandons in-flight points (their records are dropped, not
// emitted); Run returns the context error if any planned point went
// unemitted for that reason.
func Run(ctx context.Context, plan *Plan, solve Solver, emit func(*Result) error,
	start func(func(context.Context)) error, opt Options) error {
	n := plan.N()
	if n == 0 {
		return errors.New("sweep: empty plan")
	}
	from := opt.From
	if from < 0 || from > n {
		return fmt.Errorf("sweep: From %d outside [0, %d]", from, n)
	}
	lanes := opt.Lanes
	if lanes > n-from {
		lanes = n - from
	}
	if lanes < 1 {
		lanes = 1
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered to the plan size: lanes never block on the emitter, so a slow
	// client cannot stall solver workers (the scheduler slot is released as
	// soon as the lane's segment is done).
	results := make(chan *Result, n)
	segSize := (n - from + lanes - 1) / lanes
	var nextSeg atomic.Int64
	lane := func() {
		for {
			seg := int(nextSeg.Add(1)) - 1
			lo := from + seg*segSize
			if lo >= n {
				return
			}
			hi := min(lo+segSize, n)
			var carry any
			for seq := lo; seq < hi; seq++ {
				if runCtx.Err() != nil {
					return
				}
				p := plan.Points[seq]
				body, meta, next, err := solve(runCtx, p, carry)
				if err != nil {
					if runCtx.Err() != nil {
						// Canceled mid-solve: the record is dropped — on
						// resume this is the one point allowed to recompute.
						return
					}
					carry = nil
					results <- &Result{Point: p, Err: err, Meta: meta}
					continue
				}
				carry = next
				results <- &Result{Point: p, Body: body, Meta: meta}
			}
		}
	}

	var wg sync.WaitGroup
	admitted := 0
	var startErr error
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		err := start(func(context.Context) {
			defer wg.Done()
			lane()
		})
		if err != nil {
			wg.Done()
			startErr = err
			continue
		}
		admitted++
	}
	if admitted == 0 {
		return errors.Join(ErrNoLanes, startErr)
	}
	if opt.OnStart != nil {
		opt.OnStart()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder lane output into strict plan order.
	buf := make(map[int]*Result, lanes)
	nextSeq := from
	flush := func() error {
		for {
			r, ok := buf[nextSeq]
			if !ok {
				return nil
			}
			delete(buf, nextSeq)
			if err := emit(r); err != nil {
				return err
			}
			nextSeq++
		}
	}
	for r := range results {
		buf[r.Seq] = r
		if err := flush(); err != nil {
			cancel()
			for range results {
				// Drain so lanes can finish sending into the buffer.
			}
			return err
		}
	}
	if nextSeq < n {
		// Lanes exited with points unemitted: only cancellation drops
		// records.
		if err := ctx.Err(); err != nil {
			return err
		}
		return errors.New("sweep: lanes exited with unemitted points")
	}
	return nil
}
