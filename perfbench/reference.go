package main

import (
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Host time on a shared machine swings by up to 2× within seconds as other
// tenants load the physical core, so the host-time metrics count a step's
// host time in refs: the time of one fixed piece of reference work measured
// while the step runs. A ref is refMuls 2048-bit Montgomery multiplications
// over fixed operands, written here so that no change to the program moves
// it; it is compute-bound big-integer work like the workloads' own hot loop
// and allocates nothing per burst, so allocs_per_step does not see it. A sampler
// goroutine runs one ref every refEvery during the step; the bursts'
// host time is taken out of the step's, and the step's time is divided by
// the median burst, which cancels the machine's speed at that moment.
//
// setup_s has to be in seconds: it is a setup's cost in refs times
// refNominal, the ref's time on an idle core of the 2.1 GHz Xeon the
// benchmark was first run on, so it reads as the seconds such a core takes.
const (
	refLimbs   = 32 // 2048 bits
	refMuls    = 512
	refEvery   = 50 * time.Millisecond
	refNominal = 1200 * time.Microsecond
	refSeed    = 0x7265666572656e63
)

// reference is the fixed reference work, the same in every run whatever
// its seed.
type reference struct {
	m, x, y [refLimbs]uint64
	m0inv   uint64 // −m⁻¹ mod 2⁶⁴
	t       [refLimbs + 2]uint64
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(refSeed))
	r := &reference{}
	for i := range r.m {
		r.m[i], r.x[i], r.y[i] = rng.Uint64(), rng.Uint64(), rng.Uint64()
	}
	r.m[0] |= 1
	r.m[refLimbs-1] |= 1 << 63
	r.x[refLimbs-1] >>= 1 // x, y < m
	r.y[refLimbs-1] >>= 1
	inv := r.m[0] // Newton's iteration doubles the correct low bits each step
	for range 5 {
		inv *= 2 - r.m[0]*inv
	}
	r.m0inv = -inv
	return r
}

// burst does one ref of work and returns its host time.
func (r *reference) burst() time.Duration {
	start := time.Now()
	for range refMuls {
		r.montMul()
	}
	return time.Since(start)
}

// montMul sets x = x·y·2⁻²⁰⁴⁸ mod m (CIOS Montgomery multiplication with a
// branch-free final subtraction, so every call does the same work).
func (r *reference) montMul() {
	const n = refLimbs
	t := &r.t
	*t = [n + 2]uint64{}
	for i := range n {
		var c, cc uint64
		for j := range n {
			hi, lo := bits.Mul64(r.x[j], r.y[i])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			t[j], c = lo, hi+cc
		}
		t[n], cc = bits.Add64(t[n], c, 0)
		t[n+1] = cc
		q := t[0] * r.m0inv
		hi, lo := bits.Mul64(q, r.m[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(q, r.m[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			t[j-1], c = lo, hi+cc
		}
		t[n-1], cc = bits.Add64(t[n], c, 0)
		t[n] = t[n+1] + cc
	}
	var d [n]uint64
	var borrow uint64
	for j := range n {
		d[j], borrow = bits.Sub64(t[j], r.m[j], borrow)
	}
	// Keep t when t < m: borrow out of the subtraction and no carry word.
	keep := -(borrow &^ t[n]) // all ones to keep t, zero to take d
	for j := range n {
		r.x[j] = t[j]&keep | d[j]&^keep
	}
}

// timeStep runs step while a sampler goroutine does one ref every refEvery,
// plus one more after the step. It returns the step's wall time, its host
// time without the bursts that ran inside it, and the median burst.
func (r *reference) timeStep(step func() error) (wall, host, ref time.Duration, err error) {
	type burst struct{ start, end time.Time }
	bursts := make([]burst, 0, 256) // allocated before the step, not during it
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				d := r.burst()
				bursts = append(bursts, burst{start, start.Add(d)})
			}
		}
	}()
	start := time.Now()
	err = step()
	end := time.Now()
	close(stop)
	<-done
	wall = end.Sub(start)
	host = wall
	samples := make([]time.Duration, 0, len(bursts)+1)
	for _, b := range bursts {
		samples = append(samples, b.end.Sub(b.start))
		if b.end.After(end) {
			b.end = end // a burst cut by the step's end
		}
		if b.end.After(b.start) {
			host -= b.end.Sub(b.start)
		}
	}
	samples = append(samples, r.burst())
	slices.Sort(samples)
	return wall, host, samples[len(samples)/2], err
}
