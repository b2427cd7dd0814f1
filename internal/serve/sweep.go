package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"encoding/json"

	"repro/internal/solverr"
	"repro/internal/sweep"
)

// sweepHeader is the first NDJSON line of a sweep stream: the job identity
// and shape, sent once the scheduler has admitted at least one lane (so a
// committed stream always makes progress).
type sweepHeader struct {
	Hash   string `json:"hash"`
	Param  string `json:"param"`
	Points int    `json:"points"`
	Lanes  int    `json:"lanes"`
	Have   int    `json:"have,omitempty"`
}

// sweepRecord is one point line. Body is the canonical single-solve response
// embedded verbatim — byte-identical to what POST /v1/simulate returns for
// the same point — so clients and caches treat sweep points and single
// solves interchangeably. Error records carry the single-solve error body
// and status instead; the sweep continues past them.
type sweepRecord struct {
	Seq     int             `json:"seq"`
	Index   int             `json:"index"`
	VCtlDC  float64         `json:"vctl_dc,omitempty"`
	Duty    float64         `json:"duty,omitempty"`
	Circuit string          `json:"circuit,omitempty"`
	Hash    string          `json:"hash"`
	Cache   string          `json:"cache,omitempty"`
	Status  int             `json:"status,omitempty"` // error records only
	Body    json.RawMessage `json:"body,omitempty"`
	Error   json.RawMessage `json:"error,omitempty"`
}

// sweepTrailer is the final NDJSON line: completion accounting. Its absence
// tells a client the stream was cut and a resume is in order.
type sweepTrailer struct {
	Points    int    `json:"points"`
	Emitted   int    `json:"emitted"`
	Solved    int    `json:"solved"`
	CacheHits int    `json:"cache_hits"`
	Coalesced int    `json:"coalesced"`
	Errors    int    `json:"errors"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"` // interrupted runs only
}

// pointError carries a failed point's single-solve error response through
// the executor to the record writer.
type pointError struct {
	status int
	body   []byte
}

func (e *pointError) Error() string { return fmt.Sprintf("point failed with status %d", e.status) }

// handleSweep is the batch endpoint: decode → canonicalize every point with
// the single-request rules → stream NDJSON records in plan order while the
// sweep executor drives points through the same cache / single-flight /
// engine path as /v1/simulate. Every solved point is written to the cache
// tiers, so a client resuming an interrupted sweep (the same request with
// "have") gets the points solved before the cut back as cache hits, for as
// long as the tiers hold them.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.m.SweepRequests.Add(1)
	req, err := DecodeSweepRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	job, err := req.Canonicalize()
	if err != nil {
		s.writeError(w, err)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if job.DeadlineMS > 0 {
		deadline = time.Duration(job.DeadlineMS) * time.Millisecond
	}
	// Unlike single solves, the context chains from the request: a client
	// that hangs up cancels in-flight lanes (their points re-run on resume)
	// instead of finishing a stream nobody reads.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	t0 := time.Now()
	var tr sweepTrailer
	tr.Points = job.Plan.N()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerWritten := false

	emit := func(res *sweep.Result) error {
		rec := sweepRecord{Seq: res.Seq, Index: res.Index, Hash: job.Hashes[res.Seq]}
		switch job.Param {
		case SweepParamVCtl:
			rec.VCtlDC = res.Value
		case SweepParamDuty:
			// The swept value plus the fully substituted circuit name, so a
			// stream line is replayable as a single request verbatim.
			rec.Duty = res.Value
			rec.Circuit = job.Points[res.Seq].Circuit
		case SweepParamCircuit:
			rec.Circuit = res.Label
		}
		if res.Err != nil {
			tr.Errors++
			var pe *pointError
			if errors.As(res.Err, &pe) {
				rec.Status, rec.Error = pe.status, pe.body
			} else {
				rec.Status, rec.Error = errorResponse(res.Err, nil, nil)
			}
		} else {
			rec.Cache = res.Meta.Cache
			rec.Body = res.Body
			switch res.Meta.Cache {
			case "hit", "hit-disk":
				tr.CacheHits++
			case "coalesced":
				tr.Coalesced++
			default:
				tr.Solved++
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		tr.Emitted++
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	runErr := sweep.Run(ctx, job.Plan, s.sweepSolver(job), emit, func(fn func(context.Context)) error {
		return s.sched.Submit(ctx, fn)
	}, sweep.Options{
		Lanes: job.Lanes,
		From:  job.Have,
		OnStart: func() {
			headerWritten = true
			h := w.Header()
			h.Set("Content-Type", "application/x-ndjson")
			h.Set("X-Sweep-Hash", job.Hash())
			w.WriteHeader(http.StatusOK)
			enc.Encode(struct {
				Sweep sweepHeader `json:"sweep"`
			}{sweepHeader{Hash: job.Hash(), Param: job.Param, Points: job.Plan.N(), Lanes: job.Lanes, Have: job.Have}})
			if flusher != nil {
				flusher.Flush()
			}
		},
	})

	if runErr != nil && !headerWritten {
		// Nothing streamed yet: fail the request whole, like a single solve.
		if errors.Is(runErr, sweep.ErrNoLanes) {
			status := http.StatusServiceUnavailable
			kind := "closed"
			if errors.Is(runErr, ErrSaturated) {
				status = http.StatusTooManyRequests
				kind = "saturated"
			}
			writeResult(w, status, mustJSON(ErrorBody{Error: runErr.Error(), Kind: kind}), "")
			return
		}
		s.m.SweepCanceled.Add(1)
		s.writeError(w, solverr.Wrap(solverr.KindCanceled, "serve.sweep", runErr))
		return
	}

	tr.ElapsedMS = time.Since(t0).Milliseconds()
	if runErr != nil {
		// Stream interrupted (deadline or client hangup): say so in the
		// trailer, best-effort (the connection is often already gone).
		s.m.SweepCanceled.Add(1)
		tr.Error = runErr.Error()
		enc.Encode(struct {
			Done sweepTrailer `json:"done"`
		}{tr})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	s.m.SweepCompleted.Add(1)
	enc.Encode(struct {
		Done sweepTrailer `json:"done"`
	}{tr})
	if flusher != nil {
		flusher.Flush()
	}
}

// sweepSolver adapts the single-solve path to the executor's Solver: each
// point goes cache → single-flight → engine exactly as /v1/simulate does, so
// point bodies are byte-identical to single solves and land in the same
// content-addressed cache. The warm-start carry is deliberately unused here:
// serve-tier points run the exact cold solve so their bytes dedup against
// single requests (see DESIGN.md "Sweep jobs"); warm continuation lives in
// the offline TuningSweep driver.
func (s *Server) sweepSolver(job *SweepJob) sweep.Solver {
	return func(ctx context.Context, p sweep.Point, _ any) ([]byte, sweep.Meta, any, error) {
		hash := job.Hashes[p.Seq]
		c := job.Points[p.Seq]
		s.m.SweepPoints.Add(1)
		t0 := time.Now()

		if body, source := s.lookup(hash); body != nil {
			s.m.SweepPointsCached.Add(1)
			return body, sweep.Meta{Cache: source, NS: time.Since(t0).Nanoseconds()}, nil, nil
		}
		f, leader := s.flights.join(hash)
		if !leader {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, sweep.Meta{}, nil, ctx.Err()
			}
			if f.res.status != http.StatusOK {
				s.m.SweepPointsFailed.Add(1)
				return nil, sweep.Meta{Cache: "coalesced"}, nil, &pointError{status: f.res.status, body: f.res.body}
			}
			s.m.SweepPointsCoalesced.Add(1)
			return f.res.body, sweep.Meta{Cache: "coalesced", NS: time.Since(t0).Nanoseconds()}, nil, nil
		}
		status, body := s.lead(ctx, hash, f, c)
		if status != http.StatusOK {
			s.m.SweepPointsFailed.Add(1)
			return nil, sweep.Meta{Cache: "miss"}, nil, &pointError{status: status, body: body}
		}
		s.m.SweepPointsSolved.Add(1)
		return body, sweep.Meta{Cache: "miss", NS: time.Since(t0).Nanoseconds()}, nil, nil
	}
}
