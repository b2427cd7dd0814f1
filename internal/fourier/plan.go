package fourier

import (
	"math"
	"sync"
	"sync/atomic"
)

// Plan caches every length-dependent ingredient of the DFT — the bit-reversal
// permutation, the per-stage twiddle factors for both directions, and (for
// non-power-of-two lengths) the Bluestein chirp and the transforms of its
// convolution kernel — so repeated transforms of the same length perform no
// setup work and no allocation. Plans are immutable after construction and
// safe for concurrent use; Bluestein scratch comes from an internal pool.
type Plan struct {
	n int // transform length

	// Radix-2 kernel state for length rn: rn == n when n is a power of two,
	// otherwise the power-of-two Bluestein convolution length m >= 2n-1.
	rn    int
	rev   []int32      // bit-reversal permutation of [0,rn)
	twidF []complex128 // forward twiddles, stages concatenated (len rn-1)
	twidI []complex128 // inverse twiddles, same layout

	// Bluestein chirp state; nil when the radix-2 kernel applies directly.
	chirpF []complex128 // e^{-iπk²/n}
	chirpI []complex128 // e^{+iπk²/n}
	bF     []complex128 // FFT of the conjugate-chirp kernel, forward chirp
	bI     []complex128 // same for the inverse chirp
	conv   sync.Pool    // *[]complex128 scratch of length rn

	// Length-n complex scratch for the real-signal helpers.
	work sync.Pool
}

// PlanCacheCap bounds the shared plan cache: at most this many distinct
// transform lengths stay resident, with least-recently-used eviction beyond
// it. A solver run touches a handful of lengths, so the cap is pure headroom
// there; it exists for long-lived services sweeping many grid sizes, where
// the old unbounded cache grew monotonically (one entry per length seen).
const PlanCacheCap = 32

// planEntry pairs a cached plan with its recency stamp. Stamps are written
// atomically on every hit so the hot lookup path stays lock-free (PlanFFT is
// called on every batched transform, from the server's concurrent solves).
type planEntry struct {
	p     *Plan
	stamp atomic.Int64
}

var (
	planCache sync.Map     // int -> *planEntry; lock-free hit path
	planClock atomic.Int64 // global recency counter
	planMu    sync.Mutex   // serializes insert + evict only
	planLen   int          // resident entries, guarded by planMu
)

// PlanFFT returns the shared transform plan for length n, building and
// caching it on first use. The cache keeps the PlanCacheCap most recently
// used lengths; an evicted length is simply re-planned on next use (plans
// are pure functions of n, so eviction never changes transform results —
// the plan suite pins this bitwise). A caller holding a *Plan across an
// eviction keeps a fully functional plan.
func PlanFFT(n int) *Plan {
	if e, ok := planCache.Load(n); ok {
		ent := e.(*planEntry)
		ent.stamp.Store(planClock.Add(1))
		return ent.p
	}
	planMu.Lock()
	defer planMu.Unlock()
	if e, ok := planCache.Load(n); ok { // lost the build race: reuse
		ent := e.(*planEntry)
		ent.stamp.Store(planClock.Add(1))
		return ent.p
	}
	ent := &planEntry{p: newPlan(n)}
	ent.stamp.Store(planClock.Add(1))
	planCache.Store(n, ent)
	planLen++
	for planLen > PlanCacheCap {
		evictOldestPlanLocked()
	}
	return ent.p
}

// evictOldestPlanLocked removes the entry with the smallest recency stamp.
// Caller holds planMu. Concurrent hits may advance stamps mid-scan; that can
// only make the victim fresher than the scan concluded, which costs one
// rebuild later but never correctness.
func evictOldestPlanLocked() {
	var victim any
	oldest := int64(math.MaxInt64)
	planCache.Range(func(k, v any) bool {
		if s := v.(*planEntry).stamp.Load(); s < oldest {
			oldest, victim = s, k
		}
		return true
	})
	if victim != nil {
		planCache.Delete(victim)
		planLen--
	}
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	p.work.New = func() any {
		buf := make([]complex128, n)
		return &buf
	}
	if n <= 1 {
		p.rn = n
		return p
	}
	if n&(n-1) == 0 {
		p.rn = n
	} else {
		m := 1
		for m < 2*n-1 {
			m <<= 1
		}
		p.rn = m
	}
	p.rev = bitrevTable(p.rn)
	p.twidF = twiddleTable(p.rn, false)
	p.twidI = twiddleTable(p.rn, true)
	if p.rn != n {
		p.chirpF = chirpTable(n, false)
		p.chirpI = chirpTable(n, true)
		p.bF = p.kernelFFT(p.chirpF)
		p.bI = p.kernelFFT(p.chirpI)
		m := p.rn
		p.conv.New = func() any {
			buf := make([]complex128, m)
			return &buf
		}
	}
	return p
}

// bitrevTable precomputes the bit-reversal permutation with an incremental
// carry loop; rev[i] is the j paired with i, and the radix2 kernel swaps only
// when i < rev[i].
func bitrevTable(n int) []int32 {
	rev := make([]int32, n)
	for i, j := 0, 0; i < n; i++ {
		rev[i] = int32(j)
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	return rev
}

// twiddleTable tabulates the per-stage twiddle sequence by the w *= wstep
// recurrence (every block of a stage sees the same sequence). Stage of size
// 2,4,...,n contributes size/2 entries.
func twiddleTable(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	tw := make([]complex128, n-1)
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw[off+k] = w
			w *= wstep
		}
		off += half
	}
	return tw
}

// chirpTable is the Bluestein chirp w[k] = e^{sign·iπk²/n}, k² reduced mod 2n.
func chirpTable(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return chirp
}

// kernelFFT builds the forward transform of the conjugate-chirp convolution
// kernel b: conj(chirp[k]) at k and at m−k, zero between.
func (p *Plan) kernelFFT(chirp []complex128) []complex128 {
	n, m := p.n, p.rn
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		conj := complex(real(chirp[k]), -imag(chirp[k]))
		b[k] = conj
		if k > 0 {
			b[m-k] = conj
		}
	}
	p.radix2(b, false)
	return b
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Forward computes the forward DFT of src into dst; dst and src must each
// have length Len() and may be the same slice. No allocation occurs.
func (p *Plan) Forward(dst, src []complex128) { p.transform(dst, src, false) }

// Inverse computes the inverse DFT (with 1/N normalization) of src into dst;
// dst and src must each have length Len() and may be the same slice.
func (p *Plan) Inverse(dst, src []complex128) { p.transform(dst, src, true) }

func (p *Plan) transform(dst, src []complex128, inverse bool) {
	n := p.n
	if len(dst) != n || len(src) != n {
		panic("fourier: plan length mismatch")
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	if n <= 1 {
		return
	}
	if p.chirpF == nil {
		p.radix2(dst, inverse)
	} else {
		p.bluestein(dst, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// radix2 is the planned iterative Cooley-Tukey kernel; len(x) must equal
// p.rn. No normalization is applied.
func (p *Plan) radix2(x []complex128, inverse bool) {
	n := p.rn
	for i, j := range p.rev {
		if int32(i) < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twidF
	if inverse {
		tw = p.twidI
	}
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[off : off+half]
		for start := 0; start < n; start += size {
			blk := x[start : start+size]
			for k, w := range stage {
				a := blk[k]
				b := blk[k+half] * w
				blk[k] = a + b
				blk[k+half] = a - b
			}
		}
		off += half
	}
}

// bluestein is the planned chirp-z transform: the arbitrary-length DFT as a
// power-of-two convolution. The convolution scratch comes from the plan's
// pool; its tail is re-zeroed on every use, as the convolution needs.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.rn
	chirp, bfft := p.chirpF, p.bF
	if inverse {
		chirp, bfft = p.chirpI, p.bI
	}
	buf := p.conv.Get().(*[]complex128)
	a := (*buf)[:m]
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.radix2(a, false)
	for i := range a {
		a[i] *= bfft[i]
	}
	p.radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
	p.conv.Put(buf)
}

// ForwardReal widens a real signal into dst and runs the forward transform
// in place; dst must have length Len(). No allocation occurs.
func (p *Plan) ForwardReal(dst []complex128, src []float64) {
	if len(dst) != p.n || len(src) != p.n {
		panic("fourier: plan length mismatch")
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	if p.n <= 1 {
		return
	}
	if p.chirpF == nil {
		p.radix2(dst, false)
	} else {
		p.bluestein(dst, false)
	}
}

// InverseReal inverts a conjugate-symmetric spectrum and writes the real part
// of the result into dst without modifying src. Scratch comes from the plan's
// pool, so steady-state calls do not allocate.
func (p *Plan) InverseReal(dst []float64, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic("fourier: plan length mismatch")
	}
	buf := p.work.Get().(*[]complex128)
	c := (*buf)[:p.n]
	p.Inverse(c, src)
	for i, v := range c {
		dst[i] = real(v)
	}
	p.work.Put(buf)
}
