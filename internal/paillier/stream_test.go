package paillier

import (
	"testing"
	"time"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// streamEncrypt feeds ms through a session in chunks of the given size and
// concatenates the results, summing the reported sequential sim cost.
func streamEncrypt(t *testing.T, b StreamBackend, pk *PublicKey, ms []mpint.Nat, seed uint64, chunk int) ([]Ciphertext, time.Duration) {
	t.Helper()
	sess, err := b.BeginEncrypt(pk, seed)
	if err != nil {
		t.Fatalf("BeginEncrypt: %v", err)
	}
	defer sess.Close()
	var out []Ciphertext
	var sim time.Duration
	for base := 0; base < len(ms); base += chunk {
		end := base + chunk
		if end > len(ms) {
			end = len(ms)
		}
		cts, d, err := sess.Next(ms[base:end])
		if err != nil {
			t.Fatalf("Next(%d:%d): %v", base, end, err)
		}
		out = append(out, cts...)
		sim += d
	}
	return out, sim
}

func sameCiphertexts(t *testing.T, label string, a, b []Ciphertext) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if mpint.Cmp(a[i].C, b[i].C) != 0 {
			t.Fatalf("%s: ciphertext %d differs between streamed and sequential paths", label, i)
		}
	}
}

func plaintexts(n int, mod mpint.Nat) []mpint.Nat {
	rng := mpint.NewRNG(2024)
	ms := make([]mpint.Nat, n)
	for i := range ms {
		ms[i] = rng.RandBelow(mod)
	}
	return ms
}

// TestStreamEncryptBitExactCPU: chunked CPU encryption reproduces the
// serial EncryptVec ciphertexts for every chunk size.
func TestStreamEncryptBitExactCPU(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	ms := plaintexts(21, pk.N)
	const seed = 31
	want, err := CPUBackend{}.EncryptVec(pk, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 4, 8, 21, 64} {
		got, sim := streamEncrypt(t, CPUBackend{}, pk, ms, seed, chunk)
		sameCiphertexts(t, "cpu", want, got)
		if sim != 0 {
			t.Fatalf("cpu session reported sim time %v", sim)
		}
	}
}

// TestStreamEncryptBitExactGPU: chunked device encryption reproduces
// EncryptVec, reports per-chunk sim cost, and records measured overlap on
// the device when the session closes.
func TestStreamEncryptBitExactGPU(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	ms := plaintexts(24, pk.N)
	const seed = 77

	dev := gpu.MustNew(gpu.SmallTestDevice(), true)
	b := MustGPUBackend(ghe.MustEngine(dev))
	want, err := b.EncryptVec(pk, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	seqStats := dev.Stats()
	if seqStats.StreamOps != 0 {
		t.Fatalf("whole-batch path must not register stream ops")
	}

	dev2 := gpu.MustNew(gpu.SmallTestDevice(), true)
	b2 := MustGPUBackend(ghe.MustEngine(dev2))
	got, sim := streamEncrypt(t, b2, pk, ms, seed, 8)
	sameCiphertexts(t, "gpu", want, got)
	if sim <= 0 {
		t.Fatalf("device session reported no sim cost")
	}
	st := dev2.Stats()
	if st.StreamOps != 1 || st.StreamChunks != 3 {
		t.Fatalf("stream counters ops=%d chunks=%d, want 1 and 3", st.StreamOps, st.StreamChunks)
	}
	if st.SimStreamTime <= 0 || st.SimStreamTime > st.SimStreamSeqTime {
		t.Fatalf("overlap %v outside (0, %v]", st.SimStreamTime, st.SimStreamSeqTime)
	}
	if ov := st.SimTimeOverlapped(); ov > st.SimTime() {
		t.Fatalf("overlapped total %v exceeds sequential %v", ov, st.SimTime())
	}
	// The session's reported per-chunk costs are the device's sequential
	// accrual for the streamed work.
	if sim != st.SimStreamSeqTime {
		t.Fatalf("session sim sum %v != device stream seq %v", sim, st.SimStreamSeqTime)
	}
	// Decrypts round-trip.
	dec, err := b2.DecryptVec(sk, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if mpint.Cmp(dec[i], ms[i]) != 0 {
			t.Fatalf("roundtrip %d differs", i)
		}
	}
}

// TestStreamEncryptCheckedRetry: one mid-pipeline chunk hits a corrupting
// kernel, the checked layer retries it, and the streamed ciphertexts stay
// bit-exact with the fault-free sequential path.
func TestStreamEncryptCheckedRetry(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	ms := plaintexts(24, pk.N)
	const seed = 99

	clean := gpu.MustNew(gpu.SmallTestDevice(), true)
	want, err := MustGPUBackend(ghe.MustEngine(clean)).EncryptVec(pk, ms, seed)
	if err != nil {
		t.Fatal(err)
	}

	dev := gpu.MustNew(gpu.SmallTestDevice(), true)
	dev.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 11, CorruptProb: 0.3}))
	dev.SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	ce := ghe.MustCheckedEngine(ghe.MustEngine(dev), ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1})
	got, _ := streamEncrypt(t, MustGPUBackend(ce), pk, ms, seed, 6)
	sameCiphertexts(t, "checked-retry", want, got)
	st := ce.Stats()
	if st.VerifyFailures == 0 || st.Retries == 0 {
		t.Fatalf("expected mid-stream corruption retries, got %+v", st)
	}
}

// TestStreamEncryptCheckedFailover: the device is killed mid-stream, later
// chunks fail over to the host engine, and the ciphertexts are still
// bit-exact with the sequential path.
func TestStreamEncryptCheckedFailover(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	ms := plaintexts(24, pk.N)
	const seed = 55

	clean := gpu.MustNew(gpu.SmallTestDevice(), true)
	want, err := MustGPUBackend(ghe.MustEngine(clean)).EncryptVec(pk, ms, seed)
	if err != nil {
		t.Fatal(err)
	}

	set, err := gpu.NewDeviceSet(gpu.SmallTestDevice(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill after the first chunk's kernels so the stream breaks mid-flight.
	set.Device(0).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 4}))
	ce, err := ghe.NewShardedEngine(set, ghe.CheckedConfig{MaxRetries: 2, VerifyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamEncrypt(t, MustGPUBackend(ce), pk, ms, seed, 6)
	sameCiphertexts(t, "checked-failover", want, got)
	st := ce.Stats()
	if !st.FellBack {
		t.Fatalf("expected permanent failover, got %+v", st)
	}
}

// TestStreamEncryptHostEngine: a GPUBackend over the pure-host CPUEngine
// streams without a device — no pipeline, zero sim cost, same ciphertexts.
func TestStreamEncryptHostEngine(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	ms := plaintexts(10, pk.N)
	const seed = 7
	b := MustGPUBackend(ghe.NewCPUEngine())
	want, err := b.EncryptVec(pk, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, sim := streamEncrypt(t, b, pk, ms, seed, 3)
	sameCiphertexts(t, "host-engine", want, got)
	if sim != 0 {
		t.Fatalf("host engine session reported sim time %v", sim)
	}
}

func TestBeginEncryptRejectsNilKey(t *testing.T) {
	if _, err := (CPUBackend{}).BeginEncrypt(nil, 1); err == nil {
		t.Fatal("cpu: nil key accepted")
	}
	if _, err := MustGPUBackend(ghe.NewCPUEngine()).BeginEncrypt(nil, 1); err == nil {
		t.Fatal("gpu: nil key accepted")
	}
}
