package paillier

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// NoncePool precomputes Paillier noise terms offline. Encryption's dominant
// cost is rⁿ mod n² — an n-bit exponentiation that does not depend on the
// plaintext — so a pool can compute batches of (r, rⁿ) pairs during idle
// sim-time and let the online path pop a ready pair per ciphertext.
//
// Determinism: the pool draws from the same global-index nonce stream that
// ghe.StreamEngine.RandCoprimeRange defines — pair i under seed s is
// identical whether it was precomputed, computed inline by EncryptVec, or
// recomputed after a mid-stream fault retry. A pooled encryption is
// therefore bit-exact with its unpooled counterpart; the pool only moves
// work off the online path, never changes results.
//
// Cost accounting: Prefill brackets its device work with
// gpu.Device.ReclassifyPrecompute, so precomputed batches charge
// SimPrecomputeTime instead of the online SimTime() clock.
type NoncePool struct {
	mu   sync.Mutex
	pk   *PublicKey
	eng  ghe.StreamEngine
	seed uint64
	head int // global stream index of rns[0]
	rns  []mpint.Nat

	// Chunk is the refill batch size fed through the device pipeline;
	// defaults to 32 when zero or negative.
	Chunk int

	stats PoolStats
}

// PoolStats counts pool traffic: how many noise terms the online path got
// for free (Hits) versus had to compute inline (Misses), and what the
// offline refills cost.
type PoolStats struct {
	// Hits and Misses count noise terms requested on the online path that
	// were served ready versus computed inline.
	Hits, Misses int64
	// Refills counts Prefill calls that did work; Precomputed counts the
	// noise terms they produced.
	Refills     int64
	Precomputed int64
	// RefillSim is the simulated device time reclassified from the online
	// clock to SimPrecomputeTime across all refills.
	RefillSim time.Duration
}

// NewNoncePool builds a pool over pk's nonce stream under seed. The engine
// must address nonces by global stream position (every shipped engine
// does); the device, when present, charges refills as precompute time.
func NewNoncePool(pk *PublicKey, eng ghe.StreamEngine, seed uint64) (*NoncePool, error) {
	if pk == nil {
		return nil, fmt.Errorf("paillier: NewNoncePool needs a public key")
	}
	if eng == nil {
		return nil, fmt.Errorf("paillier: NewNoncePool needs a stream engine")
	}
	return &NoncePool{pk: pk, eng: eng, seed: seed}, nil
}

// Seed returns the nonce-stream seed the pool currently serves.
func (p *NoncePool) Seed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seed
}

// Ready returns how many precomputed pairs are waiting.
func (p *NoncePool) Ready() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.rns)
}

// Stats returns a snapshot of the pool counters.
func (p *NoncePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Reseed discards every precomputed pair and retargets the pool at a new
// stream: seed's global index 0 onward. Call before Prefill when the next
// encryption batch will run under a different seed.
func (p *NoncePool) Reseed(seed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seed = seed
	p.head = 0
	p.rns = p.rns[:0]
}

// Prefill precomputes noise terms until `count` pairs are ready, feeding
// Chunk-sized batches through the device's H2D/compute/D2H streams so
// successive refill chunks overlap. The device work is reclassified as
// SimPrecomputeTime (returned), leaving the online SimTime() clock
// untouched — the accounting that makes "offline" mean something under the
// simulated clock. Engines without a device refill on the host for free.
//
// A chunk appends to the pool only after both its r-draw and its
// rⁿ-exponentiation succeed, so a mid-chunk fault retry inside a checked
// engine can never desynchronize the pool against the global stream cursor.
func (p *NoncePool) Prefill(count int) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	need := count - len(p.rns)
	if need <= 0 {
		return 0, nil
	}
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = 32
	}
	// A sharded engine brackets the whole refill on its own clocks, so the
	// set's merged clock sheds it too; a bare device reclassifies its own
	// counters. Either way the chunks pipeline on the stream device, if any.
	dev := p.eng.StreamDevice()
	var finish func() time.Duration
	if off, ok := p.eng.(ghe.OfflineEngine); ok {
		finish = off.BeginOffline()
	} else if dev != nil {
		mark := dev.Stats()
		finish = func() time.Duration { return dev.ReclassifyPrecompute(mark) }
	}
	var pipe *gpu.Pipeline
	if dev != nil {
		pipe = dev.NewPipeline(2)
	}
	reclassify := func() time.Duration {
		if pipe != nil {
			pipe.Close()
		}
		if finish == nil {
			return 0
		}
		moved := finish()
		p.stats.RefillSim += moved
		return moved
	}
	refillErr := func(err error) (time.Duration, error) {
		reclassify()
		return 0, err
	}
	for done := 0; done < need; {
		n := chunk
		if rest := need - done; n > rest {
			n = rest
		}
		if pipe != nil {
			pipe.Begin()
		}
		base := p.head + len(p.rns)
		rs, err := p.eng.RandCoprimeRange(base, n, p.pk.N, p.seed)
		if err != nil {
			return refillErr(fmt.Errorf("paillier: pool refill nonces at %d: %w", base, err))
		}
		rns, err := p.eng.ModExpVec(rs, p.pk.N, p.pk.MontN2())
		if err != nil {
			return refillErr(fmt.Errorf("paillier: pool refill r^n at %d: %w", base, err))
		}
		if pipe != nil {
			pipe.End()
		}
		p.rns = append(p.rns, rns...)
		done += n
		p.stats.Precomputed += int64(n)
	}
	p.stats.Refills++
	return reclassify(), nil
}

// take pops up to `count` ready rⁿ terms for global stream positions
// [base, base+count) under (pk, seed). Positions the pool cannot serve —
// wrong key, wrong seed, misaligned base, or an empty pool — count as
// misses and return short (possibly nil); the caller computes the
// remainder inline from position base+len(served).
func (p *NoncePool) take(pk *PublicKey, seed uint64, base, count int) []mpint.Nat {
	if count <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if seed != p.seed || base != p.head || len(p.rns) == 0 ||
		pk != p.pk && mpint.Cmp(pk.N, p.pk.N) != 0 {
		p.stats.Misses += int64(count)
		return nil
	}
	k := count
	if k > len(p.rns) {
		k = len(p.rns)
	}
	served := make([]mpint.Nat, k)
	copy(served, p.rns[:k])
	p.rns = p.rns[k:]
	p.head += k
	p.stats.Hits += int64(k)
	p.stats.Misses += int64(count - k)
	return served
}
