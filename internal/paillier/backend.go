package paillier

import (
	"fmt"
	"reflect"

	"flbooster/internal/ghe"
	"flbooster/internal/mpint"
)

// Backend executes batched Paillier operations. The CPU backend runs every
// element serially (the FATE baseline); the GPU backend launches the
// vectorized kernels of internal/ghe (the HAFLO / FLBooster configurations).
type Backend interface {
	// Name identifies the backend in experiment reports.
	Name() string
	// EncryptVec encrypts every plaintext under pk.
	EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error)
	// DecryptVec decrypts every ciphertext under sk.
	DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error)
	// AddVec computes the pairwise homomorphic addition of two batches.
	AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error)
	// MulPlainVec raises each ciphertext to the matching plaintext scalar.
	MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error)
	// RerandomizeVec multiplies each ciphertext by a fresh encryption of
	// zero drawn from the seed's nonce stream, unlinking ciphertexts from
	// their origin without changing plaintexts.
	RerandomizeVec(pk *PublicKey, cs []Ciphertext, seed uint64) ([]Ciphertext, error)
}

// CPUBackend performs every HE operation serially on the host, as FATE's
// Python/CPU implementation does.
type CPUBackend struct{}

// Name implements Backend.
func (CPUBackend) Name() string { return "cpu-serial" }

// EncryptVec implements Backend.
func (CPUBackend) EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error) {
	rng := mpint.NewRNG(seed)
	out := make([]Ciphertext, len(ms))
	for i, m := range ms {
		c, err := pk.Encrypt(m, rng)
		if err != nil {
			return nil, fmt.Errorf("paillier: cpu EncryptVec[%d]: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// DecryptVec implements Backend.
func (CPUBackend) DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		m, err := sk.Decrypt(c)
		if err != nil {
			return nil, fmt.Errorf("paillier: cpu DecryptVec[%d]: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// AddVec implements Backend.
func (CPUBackend) AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]Ciphertext, len(a))
	for i := range a {
		out[i] = pk.Add(a[i], b[i])
	}
	return out, nil
}

// MulPlainVec implements Backend.
func (CPUBackend) MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error) {
	if len(cs) != len(ks) {
		return nil, fmt.Errorf("paillier: MulPlainVec length mismatch %d vs %d", len(cs), len(ks))
	}
	out := make([]Ciphertext, len(cs))
	for i := range cs {
		out[i] = pk.MulPlain(cs[i], ks[i])
	}
	return out, nil
}

// RerandomizeVec implements Backend with the sequential host RNG stream.
func (CPUBackend) RerandomizeVec(pk *PublicKey, cs []Ciphertext, seed uint64) ([]Ciphertext, error) {
	rng := mpint.NewRNG(seed)
	out := make([]Ciphertext, len(cs))
	for i, c := range cs {
		out[i] = pk.Rerandomize(c, rng)
	}
	return out, nil
}

// GPUBackend lowers batched operations onto the GPU-HE engine, following the
// pipeline of Fig. 4: convert, copy to device, compute in parallel, copy
// back. The engine is any ghe.VectorEngine — the raw device engine, the
// checked wrapper with retry/verify, the sharded engine with host failover,
// or the pure-host engine —
// so the backend degrades between substrates without code changes.
type GPUBackend struct {
	Engine ghe.VectorEngine
	// Pool optionally serves precomputed rⁿ noise terms to EncryptVec,
	// RerandomizeVec, and streamed encryption sessions. Because the pool
	// draws from the same global-index nonce stream the engine defines,
	// attaching it never changes results — only how much exponentiation
	// work remains on the online path. Nil disables pooling.
	Pool *NoncePool
}

// NewGPUBackend wraps a GPU-HE vector engine. Typed nils (e.g. a nil
// *ghe.Engine boxed in the interface) are rejected like bare nil, so the
// backend cannot be built around an engine that panics on first use.
func NewGPUBackend(e ghe.VectorEngine) (*GPUBackend, error) {
	if e == nil || isNilEngine(e) {
		return nil, fmt.Errorf("paillier: NewGPUBackend needs an engine")
	}
	return &GPUBackend{Engine: e}, nil
}

// isNilEngine reports whether the interface boxes a nil pointer value.
func isNilEngine(e ghe.VectorEngine) bool {
	v := reflect.ValueOf(e)
	switch v.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		return v.IsNil()
	}
	return false
}

// MustGPUBackend is NewGPUBackend for known-good engines; it panics on
// error. Intended for tests.
func MustGPUBackend(e ghe.VectorEngine) *GPUBackend {
	g, err := NewGPUBackend(e)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Backend.
func (g *GPUBackend) Name() string { return "gpu-he" }

// nonceTerms returns the rⁿ mod n² noise terms for global nonce-stream
// positions [base, base+count) under seed. Ready terms pop from the
// attached pool — a hit skips the online exponentiation entirely — and the
// remainder is drawn and exponentiated through the engine from the same
// stream positions, so results are identical with or without a pool.
func (g *GPUBackend) nonceTerms(pk *PublicKey, base, count int, seed uint64) ([]mpint.Nat, error) {
	if count == 0 {
		return nil, nil
	}
	var ready []mpint.Nat
	if g.Pool != nil {
		ready = g.Pool.take(pk, seed, base, count)
		if len(ready) == count {
			return ready, nil
		}
	}
	at, need := base+len(ready), count-len(ready)
	var rs []mpint.Nat
	var err error
	if se, ok := g.Engine.(ghe.StreamEngine); ok {
		rs, err = se.RandCoprimeRange(at, need, pk.N, seed)
	} else if at == 0 {
		rs, err = g.Engine.RandCoprimeVec(need, pk.N, seed)
	} else {
		return nil, fmt.Errorf("paillier: engine %T cannot draw nonces at stream offset %d", g.Engine, at)
	}
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu nonces at %d: %w", at, err)
	}
	rn, err := g.Engine.ModExpVec(rs, pk.N, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu r^n at %d: %w", at, err)
	}
	if len(ready) == 0 {
		return rn, nil
	}
	return append(ready, rn...), nil
}

// gPowMVec computes the gᵐ term for a batch. Under the g = n+1 shortcut
// each term is two word-level host ops. A classic generator makes every
// term a full n-bit-exponent modexp — but the base is fixed across the
// batch, so it runs as one fixed-base comb kernel (device-modelled, one
// shared precomputed table) instead of a host loop of independent Exp
// calls. Results are identical either way.
func (g *GPUBackend) gPowMVec(pk *PublicKey, ms []mpint.Nat) ([]mpint.Nat, error) {
	if pk.plusOne {
		gm := make([]mpint.Nat, len(ms))
		for i, m := range ms {
			gm[i] = pk.GPowM(m)
		}
		return gm, nil
	}
	return g.Engine.FixedBaseExpVec(pk.G, ms, pk.MontN2())
}

// EncryptVec implements Backend. gᵐ uses the n+1 shortcut on the host (two
// word-level ops per element; a fixed-base kernel for classic generators)
// while the expensive rⁿ modexp batch comes from the nonce pool or runs as
// one device kernel, then a hom-mul kernel combines them.
func (g *GPUBackend) EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error) {
	for i, m := range ms {
		if mpint.Cmp(m, pk.N) >= 0 {
			return nil, fmt.Errorf("paillier: gpu EncryptVec[%d]: plaintext exceeds modulus", i)
		}
	}
	rn, err := g.nonceTerms(pk, 0, len(ms), seed)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu EncryptVec: %w", err)
	}
	gm, err := g.gPowMVec(pk, ms)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu EncryptVec g^m: %w", err)
	}
	prod, err := g.Engine.ModMulVec(gm, rn, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu EncryptVec combine: %w", err)
	}
	out := make([]Ciphertext, len(ms))
	for i := range prod {
		out[i] = Ciphertext{C: prod[i]}
	}
	return out, nil
}

// RerandomizeVec implements Backend: each ciphertext is multiplied by a
// ready (or freshly computed) rⁿ noise term in one hom-mul kernel.
func (g *GPUBackend) RerandomizeVec(pk *PublicKey, cs []Ciphertext, seed uint64) ([]Ciphertext, error) {
	rn, err := g.nonceTerms(pk, 0, len(cs), seed)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu RerandomizeVec: %w", err)
	}
	cv := make([]mpint.Nat, len(cs))
	for i := range cs {
		cv[i] = cs[i].C
	}
	prod, err := g.Engine.ModMulVec(cv, rn, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu RerandomizeVec combine: %w", err)
	}
	out := make([]Ciphertext, len(cs))
	for i := range prod {
		out[i] = Ciphertext{C: prod[i]}
	}
	return out, nil
}

// DecryptVec implements Backend with the reduced-exponent CRT split: two
// shared-exponent kernels over the half-size moduli p² and q² (exponents
// p−1 and q−1, half the bits of λ, on operands with half the limbs), then
// the cheap L(·)·h and Garner recombination per element on the host.
func (g *GPUBackend) DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error) {
	bases := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
			return nil, fmt.Errorf("paillier: gpu DecryptVec[%d]: ciphertext out of range", i)
		}
		bases[i] = c.C
	}
	xp, err := g.Engine.ModExpVec(bases, sk.pm1, sk.montP2)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu DecryptVec c^(p-1): %w", err)
	}
	xq, err := g.Engine.ModExpVec(bases, sk.qm1, sk.montQ2)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu DecryptVec c^(q-1): %w", err)
	}
	out := make([]mpint.Nat, len(cs))
	for i := range cs {
		mp := mpint.ModMul(lHalf(xp[i], sk.P), sk.hp, sk.P)
		mq := mpint.ModMul(lHalf(xq[i], sk.Q), sk.hq, sk.Q)
		out[i] = sk.garner(mp, mq)
	}
	return out, nil
}

// AddVec implements Backend as a single modular-multiplication kernel.
func (g *GPUBackend) AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	av := make([]mpint.Nat, len(a))
	bv := make([]mpint.Nat, len(b))
	for i := range a {
		av[i], bv[i] = a[i].C, b[i].C
	}
	prod, err := g.Engine.ModMulVec(av, bv, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu AddVec: %w", err)
	}
	out := make([]Ciphertext, len(a))
	for i := range prod {
		out[i] = Ciphertext{C: prod[i]}
	}
	return out, nil
}

// MulPlainVec implements Backend as a variable-exponent modexp kernel.
func (g *GPUBackend) MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error) {
	if len(cs) != len(ks) {
		return nil, fmt.Errorf("paillier: MulPlainVec length mismatch %d vs %d", len(cs), len(ks))
	}
	bases := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		bases[i] = c.C
	}
	pow, err := g.Engine.ModExpVarVec(bases, ks, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu MulPlainVec: %w", err)
	}
	out := make([]Ciphertext, len(cs))
	for i := range pow {
		out[i] = Ciphertext{C: pow[i]}
	}
	return out, nil
}
