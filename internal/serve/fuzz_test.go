package serve

import (
	"strings"
	"testing"
)

// FuzzDecodeRequest drives the service request decoder (JSON envelope plus
// embedded netlist) with arbitrary bytes: whatever the input, decode +
// canonicalize must return a value or an error — never panic — so a
// malformed request is always rejected before it can reach the scheduler.
// The seed corpus covers each analysis kind, both circuit sources, boundary
// options and known-bad shapes.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":6e-5}}`,
		`{"circuit":"paper-vco-air","analysis":"envelope","options":{"tstop":3e-3,"n1":25,"steps":600}}`,
		`{"circuit":"paper-vco","vctl_dc":1.7,"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"deadline_ms":100}`,
		`{"netlist":"I1 0 out SIN(0 1m 10k)\nR1 out 0 1k\nC1 out 0 1u\n","analysis":"transient","options":{"tstop":1e-4,"h":1e-6}}`,
		`{"netlist":"L1 tank 0 10u esr=5\nN1 tank 0 g1=-10m g3=3.3m\n.oscvar tank\n","analysis":"shooting","options":{"f0":7.5e5}}`,
		`{"circuit":"paper-vco","analysis":"hb","options":{"nharm":33}}`,
		`{"circuit":"paper-vco","analysis":"quasiperiodic","options":{"period":4e-5,"n1":17,"n2":15}}`,
		`{"circuit":"ring-vco?stages=15","analysis":"envelope","options":{"tstop":2e-5}}`,
		`{"circuit":"pseudodiff-vco?stages=4","vctl_dc":1.5,"analysis":"transient","options":{"tstop":1e-6,"h":1e-8}}`,
		`{"circuit":"ring-vco?stages=4","analysis":"transient","options":{"tstop":1e-6,"h":1e-8}}`,
		`{"circuit":"ring-vco?stages=","analysis":"transient","options":{"tstop":1e-6,"h":1e-8}}`,
		`{"circuit":"pseudodiff-vco","analysis":"transient","options":{"tstop":1e-6,"h":1e-8}}`,
		// Converter circuits: valid spellings, then parameter strings the
		// decoder must reject cleanly (out-of-range duty/fsw, malformed
		// numbers, missing or reordered parameters).
		`{"circuit":"buck-converter?duty=0.5&fsw=1e5","analysis":"envelope","options":{"tstop":2e-3}}`,
		`{"circuit":"boost-converter?duty=0.4&fsw=100e3","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter?duty=0.99&fsw=1e5","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter?duty=0.5&fsw=1e12","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"boost-converter?duty=-0.5&fsw=1e5","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter?duty=NaN&fsw=1e5","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter?fsw=1e5&duty=0.5","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"boost-converter?duty=0.4","analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter","analysis":"envelope","options":{"tstop":2e-3}}`,
		`{"circuit":"buck-converter?duty=0.5&fsw=1e5","analysis":"shooting","options":{"period":1e-5}}`,
		`{"circuit":"buck-converter?duty=0.5&fsw=1e5","vctl_dc":1.5,"analysis":"transient","options":{"tstop":2e-4,"h":5e-8}}`,
		`{"circuit":"buck-converter?duty=0.5&fsw=1e5","analysis":"envelope","options":{"tstop":2e-3,"f0":1e5}}`,
		// Known-bad shapes the decoder must reject cleanly.
		`{"circuit":"paper-vco","netlist":"R1 a 0 1k","analysis":"transient"}`,
		`{"analysis":"transient","options":{"tstop":1e300,"h":1e-300}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":-1,"h":0}}`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":"nan"}}`,
		`{"netlist":"R1 a 0 )k(","analysis":"transient","options":{"tstop":1,"h":1}}`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":1e-5},"extra":true}`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":1e-5}}trailing`,
		"{\"netlist\":\"\x00\x01\",\"analysis\":\"transient\",\"options\":{\"tstop\":1,\"h\":1}}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		req, err := DecodeRequest(strings.NewReader(src))
		if err != nil {
			if req != nil {
				t.Fatal("DecodeRequest returned both a request and an error")
			}
			return
		}
		c, err := req.Canonicalize()
		if err != nil {
			return
		}
		// A canonicalized request must have a stable, well-formed address.
		if h := c.Hash(); len(h) != 64 {
			t.Fatalf("bad canonical hash %q", h)
		}
		// Canonicalizing the canonical form must be a fixed point: encode it
		// back through the wire struct and the hash must not drift.
		if string(c.Encode()) == "" {
			t.Fatal("empty canonical encoding")
		}
	})
}

// FuzzDecodeSweepRequest is the sweep-endpoint mirror of FuzzDecodeRequest:
// arbitrary bytes must decode + canonicalize to a job or an error, never a
// panic, so degenerate sweeps (0/1 points, reversed or non-finite bounds,
// duplicate values or corner names) are rejected before they can touch the
// scheduler.
func FuzzDecodeSweepRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"sweep":{}}`,
		// Valid shapes: grid, values, corners.
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":1,"to":2,"points":5},"lanes":2}`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":6e-5},"sweep":{"param":"vctl_dc","values":[2.5,1.0,4.0]},"have":1}`,
		`{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["paper-vco","paper-vco-air"]}}`,
		// Reversed bounds are legal (the planner normalizes them)...
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":2,"to":1,"points":4}}`,
		// ...but degenerate grids, duplicate names and non-finite endpoints
		// must be rejected cleanly.
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":1,"to":2,"points":0}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":1,"to":2,"points":1}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":2,"to":2,"points":3}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","from":1e400,"to":2,"points":3}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","values":[1.5,1.5]}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","values":[]}}`,
		`{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":["a","a"]}}`,
		`{"analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"circuit","corners":[]}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"vctl_dc":1.5,"sweep":{"param":"vctl_dc","values":[1,2]}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","values":[1,2]},"lanes":-3,"have":99}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"frequency","values":[1,2]}}`,
		// Duty sweeps: a valid grid and values form, then bad bases and
		// out-of-range points that must fail admission.
		`{"circuit":"buck-converter?fsw=1e5","analysis":"envelope","options":{"tstop":1e-4},"sweep":{"param":"duty","from":0.3,"to":0.6,"points":4}}`,
		`{"circuit":"boost-converter?fsw=2e5","analysis":"transient","options":{"tstop":1e-4,"h":5e-8},"sweep":{"param":"duty","values":[0.4,0.5,0.6]},"lanes":2}`,
		`{"circuit":"buck-converter?duty=0.5&fsw=1e5","analysis":"envelope","options":{"tstop":1e-4},"sweep":{"param":"duty","values":[0.4,0.5]}}`,
		`{"circuit":"paper-vco","analysis":"envelope","options":{"tstop":1e-4},"sweep":{"param":"duty","values":[0.4,0.5]}}`,
		`{"circuit":"buck-converter?fsw=1e5","analysis":"envelope","options":{"tstop":1e-4},"sweep":{"param":"duty","values":[0.5,0.95]}}`,
		`{"circuit":"buck-converter?fsw=1e5","analysis":"envelope","options":{"tstop":1e-4},"sweep":{"param":"duty","corners":["a"]}}`,
		`{"circuit":"paper-vco","analysis":"transient","options":{"tstop":1e-5,"h":1e-8},"sweep":{"param":"vctl_dc","values":[1,2]}}trailing`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		req, err := DecodeSweepRequest(strings.NewReader(src))
		if err != nil {
			if req != nil {
				t.Fatal("DecodeSweepRequest returned both a request and an error")
			}
			return
		}
		job, err := req.Canonicalize()
		if err != nil {
			return
		}
		// An accepted sweep must be fully materialized and addressable.
		if len(job.Hash()) != 64 {
			t.Fatalf("bad sweep hash %q", job.Hash())
		}
		n := job.Plan.N()
		if n < 1 || n > MaxSweepPoints || len(job.Points) != n || len(job.Hashes) != n {
			t.Fatalf("inconsistent job shape: n=%d points=%d hashes=%d", n, len(job.Points), len(job.Hashes))
		}
		if job.Lanes < 1 || job.Lanes > MaxSweepLanes || job.Lanes > n {
			t.Fatalf("lanes %d out of range for %d points", job.Lanes, n)
		}
		for seq, c := range job.Points {
			if c == nil || len(job.Hashes[seq]) != 64 {
				t.Fatalf("point %d not canonicalized", seq)
			}
		}
	})
}
