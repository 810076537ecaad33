package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// chunkedCoprime concatenates RandCoprimeRange chunks of the given size.
func chunkedCoprime(t *testing.T, e StreamEngine, n, chunk int, m mpint.Nat, seed uint64) []mpint.Nat {
	t.Helper()
	var out []mpint.Nat
	for base := 0; base < n; base += chunk {
		c := chunk
		if base+c > n {
			c = n - base
		}
		part, err := e.RandCoprimeRange(base, c, m, seed)
		if err != nil {
			t.Fatalf("RandCoprimeRange(%d, %d): %v", base, c, err)
		}
		out = append(out, part...)
	}
	return out
}

// TestRandCoprimeRangeBitExact: for every substrate, any chunking of the
// nonce stream reproduces the sequential RandCoprimeVec values exactly.
func TestRandCoprimeRangeBitExact(t *testing.T) {
	r := mpint.NewRNG(41)
	n := r.RandPrime(96)
	const items, seed = 23, 1234
	engines := map[string]StreamEngine{
		"gpu":     testEngine(t),
		"checked": checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{VerifyFraction: 1}),
		"cpu":     NewCPUEngine(),
	}
	want, err := NewCPUEngine().RandCoprimeVec(items, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range engines {
		seq, err := e.RandCoprimeVec(items, n, seed)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for i := range want {
			if mpint.Cmp(seq[i], want[i]) != 0 {
				t.Fatalf("%s sequential[%d] differs from reference", name, i)
			}
		}
		for _, chunk := range []int{1, 4, 7, 23, 64} {
			got := chunkedCoprime(t, e, items, chunk, n, seed)
			for i := range want {
				if mpint.Cmp(got[i], want[i]) != 0 {
					t.Fatalf("%s chunk=%d: item %d differs from sequential", name, chunk, i)
				}
			}
		}
	}
}

// TestRandCoprimeRangeSurvivesRetry: a corrupting device with full
// verification forces mid-stream chunk retries, and the chunked stream is
// still bit-exact with the fault-free sequential path.
func TestRandCoprimeRangeSurvivesRetry(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 3, CorruptProb: 0.5},
		CheckedConfig{MaxRetries: 8, VerifyFraction: 1})
	c.Device().SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	r := mpint.NewRNG(42)
	n := r.RandPrime(96)
	const items, seed = 32, 777
	want, err := NewCPUEngine().RandCoprimeVec(items, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := chunkedCoprime(t, c, items, 8, n, seed)
	for i := range want {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("item %d differs after chunk retries", i)
		}
	}
	st := c.Stats()
	if st.Retries == 0 && st.FallbackOps == 0 {
		t.Fatalf("expected the corrupting device to force retries or host serves, got %+v", st)
	}
	if st.VerifyFailures == 0 {
		t.Fatalf("expected verification to catch at least one corruption, got %+v", st)
	}
}

// TestRandCoprimeRangeSurvivesFailover: the device dies mid-stream, later
// chunks fail over to the host, and the concatenated stream stays bit-exact.
func TestRandCoprimeRangeSurvivesFailover(t *testing.T) {
	c := failoverEngine(t,
		gpu.FaultConfig{Seed: 9, KillAtLaunch: 3},
		CheckedConfig{MaxRetries: 2, VerifyFraction: 1})
	r := mpint.NewRNG(43)
	n := r.RandPrime(96)
	const items, seed = 40, 555
	want, err := NewCPUEngine().RandCoprimeVec(items, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := chunkedCoprime(t, c, items, 8, n, seed)
	for i := range want {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("item %d differs across device failover", i)
		}
	}
	st := c.Stats()
	if !st.FellBack || st.FallbackOps == 0 {
		t.Fatalf("expected permanent failover mid-stream, got %+v", st)
	}
	if h := c.Set().Device(0).Health(); h != gpu.DeviceFailed {
		t.Fatalf("device health = %s, want failed", h)
	}
}

func TestStreamDevice(t *testing.T) {
	eng := testEngine(t)
	if eng.StreamDevice() == nil {
		t.Fatal("device engine must expose its stream device")
	}
	c := checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{})
	if c.StreamDevice() == nil {
		t.Fatal("checked engine must expose its stream device")
	}
	if NewCPUEngine().StreamDevice() != nil {
		t.Fatal("host engine must report no stream device")
	}
}

func TestRandCoprimeRangeRejectsBadArgs(t *testing.T) {
	eng := testEngine(t)
	n := mpint.FromUint64(101)
	if _, err := eng.RandCoprimeRange(-1, 4, n, 1); err == nil {
		t.Fatal("negative base accepted")
	}
	if _, err := eng.RandCoprimeRange(0, 4, mpint.One(), 1); err == nil {
		t.Fatal("modulus 1 accepted")
	}
	host := NewCPUEngine()
	if _, err := host.RandCoprimeRange(-1, 4, n, 1); err == nil {
		t.Fatal("host: negative base accepted")
	}
	if _, err := host.RandCoprimeRange(0, 4, mpint.One(), 1); err == nil {
		t.Fatal("host: modulus 1 accepted")
	}
}
