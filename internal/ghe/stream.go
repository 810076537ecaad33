package ghe

import (
	"fmt"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// StreamEngine is the chunked extension of VectorEngine: a streamed caller
// splits one logical vector op into chunks and needs (a) nonce generation
// addressable by *global* stream position, so chunk results are bit-exact
// with the whole-batch path regardless of chunk boundaries, and (b) access
// to the device whose stream pipeline schedules the chunks (nil for host
// engines — the caller then skips overlap scheduling).
//
// The per-item derivation already keys every nonce on (seed, index), so
// chunking never re-draws or shifts a stream: items [base, base+n) of a
// chunked run are the same values the sequential RandCoprimeVec(seed)
// produces at those positions, including when the CheckedEngine retries a
// chunk or fails it over to the host.
type StreamEngine interface {
	VectorEngine
	// RandCoprimeRange generates items [base, base+n) of the
	// RandCoprimeVec(m, seed) stream.
	RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error)
	// StreamDevice returns the device whose streams schedule chunked ops,
	// or nil when the engine has no device (pure host execution).
	StreamDevice() *gpu.Device
}

// All three substrates stream.
var (
	_ StreamEngine = (*Engine)(nil)
	_ StreamEngine = (*CheckedEngine)(nil)
	_ StreamEngine = (*CPUEngine)(nil)
)

// StreamDevice implements StreamEngine.
func (e *Engine) StreamDevice() *gpu.Device { return e.dev }

// RandCoprimeRange implements StreamEngine: the kernel is the same
// rand_coprime_vec launch as the whole-batch path, with each thread's
// generator keyed by its global stream position.
func (e *Engine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	if base < 0 {
		return nil, fmt.Errorf("ghe: RandCoprimeRange negative base %d", base)
	}
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("ghe: RandCoprimeRange modulus must be > 1")
	}
	out := make([]mpint.Nat, n)
	kern := gpu.Kernel{
		Name:          "rand_coprime_vec",
		Items:         n,
		RegsPerThread: 24,
		WordOps:       int64(4 * ((m.BitLen() + 31) / 32)),
		Poison:        poisonOut(out),
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = randCoprimeAt(seed, base+i, m)
	}); err != nil {
		return nil, fmt.Errorf("ghe: RandCoprimeRange: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(n, (m.BitLen()+31)/32))
	return out, nil
}

// StreamDevice implements StreamEngine.
func (c *CheckedEngine) StreamDevice() *gpu.Device { return c.dev }

// RandCoprimeRange implements StreamEngine under the checked discipline:
// verification recomputes sampled items at their global positions, and a
// retried chunk redraws the exact same values, so the stream invariant
// survives per-chunk retry (and the sharded engine's host failover).
func (c *CheckedEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("rand_coprime_vec", n,
		func() (err error) { out, err = c.eng.RandCoprimeRange(base, n, m, seed); return },
		func(i int) mpint.Nat { return randCoprimeAt(seed, base+i, m) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamDevice implements StreamEngine: the host engine has no device and
// therefore nothing to overlap.
func (*CPUEngine) StreamDevice() *gpu.Device { return nil }

// RandCoprimeRange implements StreamEngine with the same per-item stream
// derivation as the device kernel.
func (*CPUEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	if base < 0 {
		return nil, fmt.Errorf("ghe: RandCoprimeRange negative base %d", base)
	}
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("ghe: RandCoprimeRange modulus must be > 1")
	}
	out := make([]mpint.Nat, n)
	for i := range out {
		out[i] = randCoprimeAt(seed, base+i, m)
	}
	return out, nil
}
