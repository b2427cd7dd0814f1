package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func goStart(fn func(context.Context)) error {
	go fn(context.Background())
	return nil
}

func TestGridPlan(t *testing.T) {
	p, err := Grid(1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i, pt := range p.Points {
		if pt.Seq != i || pt.Index != i || pt.Value != want[i] {
			t.Fatalf("point %d = %+v, want value %g", i, pt, want[i])
		}
	}
	// Descending request: same ascending solve order, mirrored Index.
	p, err = Grid(3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range p.Points {
		if pt.Value != want[i] || pt.Index != 4-i {
			t.Fatalf("descending point %d = %+v", i, pt)
		}
	}
}

func TestGridRejectsDegenerate(t *testing.T) {
	cases := []struct {
		from, to float64
		n        int
	}{
		{0, 1, 0}, {0, 1, 1}, {1, 1, 5},
		{math.NaN(), 1, 5}, {0, math.Inf(1), 5},
	}
	for _, c := range cases {
		if _, err := Grid(c.from, c.to, c.n); err == nil {
			t.Errorf("Grid(%v, %v, %d) accepted", c.from, c.to, c.n)
		}
	}
}

func TestValuesPlanSortsForContinuation(t *testing.T) {
	p, err := Values([]float64{2.5, 1.0, 4.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantV := []float64{0.5, 1.0, 2.5, 4.0}
	wantI := []int{3, 1, 0, 2}
	for i, pt := range p.Points {
		if pt.Seq != i || pt.Value != wantV[i] || pt.Index != wantI[i] {
			t.Fatalf("point %d = %+v, want value %g index %d", i, pt, wantV[i], wantI[i])
		}
	}
	if _, err := Values(nil); err == nil {
		t.Error("empty value list accepted")
	}
	if _, err := Values([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN value accepted")
	}
	if _, err := Values([]float64{1, 2, 1}); err == nil {
		t.Error("duplicate value accepted")
	}
}

func TestCornersPlan(t *testing.T) {
	p, err := Corners([]string{"tt", "ff", "ss"})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"tt", "ff", "ss"} {
		if p.Points[i].Label != name || p.Points[i].Seq != i || p.Points[i].Index != i {
			t.Fatalf("corner %d = %+v", i, p.Points[i])
		}
	}
	if _, err := Corners(nil); err == nil {
		t.Error("empty corner list accepted")
	}
	if _, err := Corners([]string{"tt", ""}); err == nil {
		t.Error("empty corner name accepted")
	}
	if _, err := Corners([]string{"tt", "ff", "tt"}); err == nil {
		t.Error("duplicate corner accepted")
	}
}

// toySolver records per-point carries and returns deterministic bodies.
type toySolver struct {
	mu      sync.Mutex
	carries map[int]any // seq -> carry seen
	solved  []int
}

func (s *toySolver) solve(_ context.Context, p Point, carry any) ([]byte, Meta, any, error) {
	s.mu.Lock()
	s.carries[p.Seq] = carry
	s.solved = append(s.solved, p.Seq)
	s.mu.Unlock()
	return []byte(fmt.Sprintf("body-%d", p.Seq)), Meta{Cache: "miss"}, p.Seq, nil
}

func TestRunEmitsInPlanOrderAndThreadsCarry(t *testing.T) {
	plan, _ := Grid(0, 1, 8)
	for _, lanes := range []int{1, 2, 3, 8} {
		ts := &toySolver{carries: map[int]any{}}
		var got []int
		err := Run(context.Background(), plan, ts.solve, func(r *Result) error {
			if r.Err != nil {
				t.Fatalf("lanes=%d: point %d errored: %v", lanes, r.Seq, r.Err)
			}
			if string(r.Body) != fmt.Sprintf("body-%d", r.Seq) {
				t.Fatalf("lanes=%d: point %d body %q", lanes, r.Seq, r.Body)
			}
			got = append(got, r.Seq)
			return nil
		}, goStart, Options{Lanes: lanes})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("lanes=%d: emission out of plan order: %v", lanes, got)
			}
		}
		// Carry threads within each lane's contiguous segment: every
		// non-segment-start point saw its predecessor's seq as carry.
		segSize := (8 + lanes - 1) / lanes
		for seq, carry := range ts.carries {
			if seq%segSize == 0 {
				if carry != nil {
					t.Fatalf("lanes=%d: segment start %d got carry %v", lanes, seq, carry)
				}
			} else if carry != seq-1 {
				t.Fatalf("lanes=%d: point %d got carry %v, want %d", lanes, seq, carry, seq-1)
			}
		}
	}
}

func TestRunErrorBreaksChainAndContinues(t *testing.T) {
	plan, _ := Grid(0, 1, 5)
	bad := 2
	var carries []any
	solve := func(_ context.Context, p Point, carry any) ([]byte, Meta, any, error) {
		carries = append(carries, carry)
		if p.Seq == bad {
			return nil, Meta{}, nil, errors.New("diverged")
		}
		return []byte{byte(p.Seq)}, Meta{}, p.Seq, nil
	}
	var errSeqs, okSeqs []int
	err := Run(context.Background(), plan, solve, func(r *Result) error {
		if r.Err != nil {
			errSeqs = append(errSeqs, r.Seq)
		} else {
			okSeqs = append(okSeqs, r.Seq)
		}
		return nil
	}, goStart, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(errSeqs) != 1 || errSeqs[0] != bad {
		t.Fatalf("error records: %v", errSeqs)
	}
	if len(okSeqs) != 4 {
		t.Fatalf("success records: %v", okSeqs)
	}
	// Point 3 starts cold after 2 failed; point 4 rides 3's carry.
	if carries[3] != nil {
		t.Fatalf("chain not reset after failure: carry[3] = %v", carries[3])
	}
	if carries[4] != 3 {
		t.Fatalf("chain not resumed after reset: carry[4] = %v", carries[4])
	}
}

// TestRunFrom: points before From are neither solved nor emitted, the rest
// come out in plan order, and the lanes split only the points left — on a
// half-held plan both lanes solve (each first solve waits here until the
// other lane has started one) and each lane's segment starts its own chain.
func TestRunFrom(t *testing.T) {
	plan, _ := Grid(0, 1, 8)
	const from = 4
	ts := &toySolver{carries: map[int]any{}}
	var arrived atomic.Int64
	both := make(chan struct{})
	solve := func(ctx context.Context, p Point, carry any) ([]byte, Meta, any, error) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			return nil, Meta{}, nil, errors.New("no second lane ever started solving")
		}
		return ts.solve(ctx, p, carry)
	}
	var emitted []int
	err := Run(context.Background(), plan, solve, func(r *Result) error {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Seq, r.Err)
		}
		emitted = append(emitted, r.Seq)
		return nil
	}, goStart, Options{Lanes: 2, From: from})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(emitted) != "[4 5 6 7]" {
		t.Fatalf("emitted %v, want [4 5 6 7]", emitted)
	}
	if len(ts.solved) != 4 {
		t.Fatalf("solved %v, want exactly the 4 points from seq %d", ts.solved, from)
	}
	// Lanes split [4, 8) into [4, 6) and [6, 8): seq 6 starts a new chain.
	for seq, want := range map[int]any{4: nil, 5: 4, 6: nil, 7: 6} {
		if got, ok := ts.carries[seq]; !ok || got != want {
			t.Fatalf("point %d carry = %v (solved %v), want %v", seq, got, ok, want)
		}
	}

	// From == n: a lane is still admitted and OnStart still runs, but
	// nothing is solved or emitted.
	started := false
	err = Run(context.Background(), plan, solve, func(r *Result) error {
		t.Fatalf("point %d emitted from a fully held plan", r.Seq)
		return nil
	}, goStart, Options{Lanes: 2, From: plan.N(), OnStart: func() { started = true }})
	if err != nil || !started {
		t.Fatalf("From == n: err %v, OnStart ran %v", err, started)
	}
	if len(ts.solved) != 4 {
		t.Fatalf("From == n solved %v", ts.solved[4:])
	}
	for _, bad := range []int{-1, plan.N() + 1} {
		if err := Run(context.Background(), plan, solve, func(*Result) error { return nil },
			goStart, Options{From: bad}); err == nil {
			t.Errorf("From %d accepted", bad)
		}
	}
}

func TestRunEmitErrorCancels(t *testing.T) {
	plan, _ := Grid(0, 1, 20)
	var solves atomic.Int64
	solve := func(ctx context.Context, p Point, _ any) ([]byte, Meta, any, error) {
		solves.Add(1)
		return []byte{1}, Meta{}, nil, nil
	}
	boom := errors.New("client went away")
	calls := 0
	err := Run(context.Background(), plan, solve, func(*Result) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	}, goStart, Options{Lanes: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("want emit error back, got %v", err)
	}
}

func TestRunContextCancelDropsInFlight(t *testing.T) {
	plan, _ := Grid(0, 1, 10)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var solves atomic.Int64
	solve := func(sctx context.Context, p Point, _ any) ([]byte, Meta, any, error) {
		if solves.Add(1) == 3 {
			cancel()
			<-release
			return nil, Meta{}, nil, sctx.Err()
		}
		return []byte{1}, Meta{}, nil, nil
	}
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, plan, solve, func(*Result) error { return nil }, goStart, Options{Lanes: 1})
	}()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := solves.Load(); n > 3 {
		t.Fatalf("lanes kept solving after cancel: %d", n)
	}
}

func TestRunNoLanesAdmitted(t *testing.T) {
	plan, _ := Grid(0, 1, 4)
	saturated := errors.New("queue full")
	err := Run(context.Background(), plan,
		func(context.Context, Point, any) ([]byte, Meta, any, error) { return nil, Meta{}, nil, nil },
		func(*Result) error { return nil },
		func(func(context.Context)) error { return saturated },
		Options{Lanes: 2})
	if !errors.Is(err, ErrNoLanes) || !errors.Is(err, saturated) {
		t.Fatalf("want ErrNoLanes wrapping the scheduler error, got %v", err)
	}
}

func TestRunPartialAdmissionStillCompletes(t *testing.T) {
	plan, _ := Grid(0, 1, 9)
	saturated := errors.New("queue full")
	admitted := 0
	start := func(fn func(context.Context)) error {
		if admitted >= 1 {
			return saturated
		}
		admitted++
		go fn(context.Background())
		return nil
	}
	var emitted int
	err := Run(context.Background(), plan,
		func(_ context.Context, p Point, _ any) ([]byte, Meta, any, error) {
			return []byte{byte(p.Seq)}, Meta{}, nil, nil
		},
		func(r *Result) error { emitted++; return nil },
		start, Options{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 9 {
		t.Fatalf("emitted %d of 9 with one admitted lane", emitted)
	}
}
