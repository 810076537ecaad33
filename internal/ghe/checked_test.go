package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// checkedEngine builds a CheckedEngine over a fresh small device with the
// given fault injection and checking policy.
func checkedEngine(t testing.TB, inject gpu.FaultConfig, cfg CheckedConfig) *CheckedEngine {
	t.Helper()
	dev := gpu.MustNew(gpu.SmallTestDevice(), true)
	if inject.Enabled() {
		dev.SetFaultInjector(gpu.NewFaultInjector(inject))
	}
	return MustCheckedEngine(MustEngine(dev), cfg)
}

// failoverEngine builds a one-device ShardedEngine — a checked engine whose
// failed ops the shard scheduler serves on the host — over a small device
// with the given fault injection and checking policy.
func failoverEngine(t testing.TB, inject gpu.FaultConfig, cfg CheckedConfig) *ShardedEngine {
	t.Helper()
	set, err := gpu.NewDeviceSet(gpu.SmallTestDevice(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inject.Enabled() {
		set.Device(0).SetFaultInjector(gpu.NewFaultInjector(inject))
	}
	s, err := NewShardedEngine(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCPUEngineParityWithDevice(t *testing.T) {
	eng := testEngine(t)
	host := NewCPUEngine()
	r := mpint.NewRNG(7)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 20, n)
	exps := randVec(r, 20, n)
	exp := r.RandBits(80)

	type pair struct {
		name     string
		dev, cpu func() ([]mpint.Nat, error)
	}
	for _, p := range []pair{
		{"ModExpVec",
			func() ([]mpint.Nat, error) { return eng.ModExpVec(bases, exp, m) },
			func() ([]mpint.Nat, error) { return host.ModExpVec(bases, exp, m) }},
		{"ModExpVarVec",
			func() ([]mpint.Nat, error) { return eng.ModExpVarVec(bases, exps, m) },
			func() ([]mpint.Nat, error) { return host.ModExpVarVec(bases, exps, m) }},
		{"FixedBaseExpVec",
			func() ([]mpint.Nat, error) { return eng.FixedBaseExpVec(bases[0], exps, m) },
			func() ([]mpint.Nat, error) { return host.FixedBaseExpVec(bases[0], exps, m) }},
		{"ModMulVec",
			func() ([]mpint.Nat, error) { return eng.ModMulVec(bases, exps, m) },
			func() ([]mpint.Nat, error) { return host.ModMulVec(bases, exps, m) }},
		{"RandCoprimeVec",
			func() ([]mpint.Nat, error) { return eng.RandCoprimeVec(20, n, 99) },
			func() ([]mpint.Nat, error) { return host.RandCoprimeVec(20, n, 99) }},
	} {
		dv, err := p.dev()
		if err != nil {
			t.Fatalf("%s device: %v", p.name, err)
		}
		cv, err := p.cpu()
		if err != nil {
			t.Fatalf("%s host: %v", p.name, err)
		}
		for i := range dv {
			if mpint.Cmp(dv[i], cv[i]) != 0 {
				t.Fatalf("%s[%d]: host fallback not bit-exact with device", p.name, i)
			}
		}
	}
}

// TestCheckedRetriesTransientAborts: launch aborts are retried with simulated
// backoff until a clean attempt lands, and the result matches the host.
func TestCheckedRetriesTransientAborts(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 5, AbortProb: 0.4},
		CheckedConfig{MaxRetries: 8})
	// Keep the device from latching Failed so the retry path is exercised.
	c.Device().SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	r := mpint.NewRNG(8)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 16, n)
	exp := r.RandBits(64)
	want, _ := NewCPUEngine().ModExpVec(bases, exp, m)
	for op := 0; op < 10; op++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if mpint.Cmp(got[i], want[i]) != 0 {
				t.Fatalf("op %d element %d wrong after retries", op, i)
			}
		}
	}
	st := c.Stats()
	if st.LaunchFaults == 0 || st.Retries == 0 || st.BackoffSim == 0 {
		t.Fatalf("expected observed faults and retries: %+v", st)
	}
	if c.Device().Stats().SimFaultTime < st.BackoffSim {
		t.Fatal("retry backoff not charged to the device clock")
	}
}

// TestCheckedCatchesCorruption: with every launch silently corrupted and full
// verification, the residue check catches each attempt, the health machine
// fails the device, and the op completes correctly on the host.
func TestCheckedCatchesCorruption(t *testing.T) {
	c := failoverEngine(t,
		gpu.FaultConfig{Seed: 3, CorruptProb: 1},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 3})
	r := mpint.NewRNG(9)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 12, n)
	exp := r.RandBits(64)
	want, _ := NewCPUEngine().ModExpVec(bases, exp, m)
	got, err := c.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("element %d still corrupted after fallback", i)
		}
	}
	st := c.Stats()
	if st.VerifyFailures == 0 {
		t.Fatalf("verification did not catch the corruption: %+v", st)
	}
	if st.FallbackOps == 0 {
		t.Fatalf("corrupted op was not served from the host: %+v", st)
	}
	// Silent corruption never latches Failed: each poisoned launch reports
	// success (resetting the streak) before verification reports the miss, so
	// the device oscillates Healthy↔Degraded and stays in rotation — the
	// retry budget, not the health machine, bounds the damage.
	if st.FellBack {
		t.Fatalf("corruption alone must not latch permanent failover: %+v", st)
	}
	if h := c.Set().Device(0).Health(); h == gpu.DeviceFailed {
		t.Fatal("silent corruption should not latch the device Failed")
	}
	if c.Set().Device(0).Stats().FaultCorruptions == 0 {
		t.Fatal("detected corruptions were not fed back into the device counters")
	}
}

// TestCheckedFullVerificationNeverMissesCorruption is the corruption-escape
// regression: with VerifyFraction=1 every element of every launch is
// checked, so across many corrupted launches no poisoned result may ever
// reach the caller. (With-replacement sampling used to miss a single
// corrupted item with probability ~(1-1/n)^n ≈ 37% per launch.)
func TestCheckedFullVerificationNeverMissesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 17, CorruptProb: 0.5},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 17, MaxRetries: 8})
	// Keep the device in rotation so every op keeps exercising the GPU path.
	c.Device().SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	r := mpint.NewRNG(18)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 8, n)
	exp := r.RandBits(48)
	want, _ := NewCPUEngine().ModExpVec(bases, exp, m)
	for op := 0; op < 40; op++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if mpint.Cmp(got[i], want[i]) != 0 {
				t.Fatalf("op %d element %d: corruption escaped full verification", op, i)
			}
		}
	}
	if st := c.Stats(); st.VerifyFailures == 0 {
		t.Fatalf("expected corrupted launches to be caught: %+v", st)
	}
}

// TestSampleIndicesWithoutReplacement: a partial fraction checks distinct
// indices, and a full fraction covers every index exactly once.
func TestSampleIndicesWithoutReplacement(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{VerifyFraction: 0.5, VerifySeed: 2})
	for _, tc := range []struct{ n, samples int }{
		{1, 1}, {8, 3}, {16, 8}, {16, 15}, {9, 9}, {5, 7},
	} {
		idx := c.sampleIndices(tc.n, tc.samples)
		wantLen := tc.samples
		if wantLen > tc.n {
			wantLen = tc.n
		}
		if len(idx) != wantLen {
			t.Fatalf("sampleIndices(%d, %d) returned %d indices, want %d",
				tc.n, tc.samples, len(idx), wantLen)
		}
		seen := make(map[int]bool, len(idx))
		for _, i := range idx {
			if i < 0 || i >= tc.n {
				t.Fatalf("sampleIndices(%d, %d) returned out-of-range index %d", tc.n, tc.samples, i)
			}
			if seen[i] {
				t.Fatalf("sampleIndices(%d, %d) repeated index %d", tc.n, tc.samples, i)
			}
			seen[i] = true
		}
	}
}

// TestCheckedFailoverBitExact is the kill-one-device criterion at the engine
// level: after the device dies, every op transparently runs on the host and
// the results are bit-exact with a healthy device.
func TestCheckedFailoverBitExact(t *testing.T) {
	clean := testEngine(t)
	c := failoverEngine(t, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, CheckedConfig{})
	r := mpint.NewRNG(10)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 16, n)
	exp := r.RandBits(72)

	wantExp, err := clean.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	gotExp, err := c.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	wantRnd, err := clean.RandCoprimeVec(16, n, 77)
	if err != nil {
		t.Fatal(err)
	}
	gotRnd, err := c.RandCoprimeVec(16, n, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantExp {
		if mpint.Cmp(gotExp[i], wantExp[i]) != 0 {
			t.Fatalf("ModExpVec[%d] fallback not bit-exact", i)
		}
		if mpint.Cmp(gotRnd[i], wantRnd[i]) != 0 {
			t.Fatalf("RandCoprimeVec[%d] fallback not bit-exact", i)
		}
	}
	st := c.Stats()
	if !st.FellBack || st.FallbackOps == 0 || st.FallbackWall <= 0 {
		t.Fatalf("failover latch not recorded: %+v", st)
	}
	if h := c.Set().Device(0).Health(); h != gpu.DeviceFailed {
		t.Fatalf("killed device health %s, want failed", h)
	}
}

// TestCheckedStatsDeterministic: identical seeds produce the identical
// fault/retry/fallback history.
func TestCheckedStatsDeterministic(t *testing.T) {
	run := func(seed uint64) CheckedStats {
		c := checkedEngine(t,
			gpu.FaultConfig{Seed: seed, AbortProb: 0.3, CorruptProb: 0.3},
			CheckedConfig{VerifyFraction: 1, VerifySeed: seed, MaxRetries: 4})
		r := mpint.NewRNG(11)
		n := r.RandPrime(96)
		m := mpint.NewMont(n)
		bases := randVec(r, 10, n)
		exp := r.RandBits(48)
		for op := 0; op < 6; op++ {
			if _, err := c.ModExpVec(bases, exp, m); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	a, b := run(21), run(21)
	if a != b {
		t.Fatalf("checked stats diverged for one seed:\n%+v\n%+v", a, b)
	}
	if a.LaunchFaults == 0 && a.VerifyFailures == 0 {
		t.Fatalf("expected some fault activity: %+v", a)
	}
}

// TestCheckedPassesThroughCallerErrors: non-device errors (length mismatch)
// surface immediately without burning retries.
func TestCheckedPassesThroughCallerErrors(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{})
	r := mpint.NewRNG(12)
	n := r.RandPrime(64)
	m := mpint.NewMont(n)
	bases := randVec(r, 4, n)
	if _, err := c.ModExpVarVec(bases, bases[:2], m); err == nil {
		t.Fatal("length mismatch must fail")
	}
	st := c.Stats()
	if st.Retries != 0 || st.LaunchFaults != 0 || st.FallbackOps != 0 {
		t.Fatalf("caller error consumed fault machinery: %+v", st)
	}
}

func TestCheckedConstructor(t *testing.T) {
	if _, err := NewCheckedEngine(nil, CheckedConfig{}); err == nil {
		t.Fatal("nil engine must be rejected")
	}
	if _, err := NewEngine(nil); err == nil {
		t.Fatal("nil device must be rejected")
	}
}
