package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

func testShardedEngine(t testing.TB, d int) *ShardedEngine {
	t.Helper()
	set, err := gpu.NewDeviceSet(gpu.SmallTestDevice(), true, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedEngine(set, CheckedConfig{VerifyFraction: 0.2, VerifySeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameVec(t *testing.T, tag string, got, want []mpint.Nat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("%s: element %d differs", tag, i)
		}
	}
}

// TestShardedMatchesSequentialEveryOp: every sharded vector op is bit-exact
// with the single-device engine across D ∈ {1,2,4,8}, lengths chosen to hit
// uneven shard splits and D > len.
func TestShardedMatchesSequentialEveryOp(t *testing.T) {
	r := mpint.NewRNG(5)
	nmod := r.RandPrime(128)
	m := mpint.NewMont(nmod)
	seq := testEngine(t)

	for _, d := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 3, 37} {
			sh := testShardedEngine(t, d)
			rr := mpint.NewRNG(9)
			bases := randVec(rr, n, nmod)
			exps := make([]mpint.Nat, n)
			for i := range exps {
				exps[i] = rr.RandBits(1 + rr.Intn(96))
			}
			exp := rr.RandBits(96)
			b2 := randVec(rr, n, nmod)

			want, err := seq.ModExpVec(bases, exp, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.ModExpVec(bases, exp, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModExpVec: %v", d, n, err)
			}
			sameVec(t, "mod_exp_vec", got, want)

			want, err = seq.ModExpVarVec(bases, exps, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.ModExpVarVec(bases, exps, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModExpVarVec: %v", d, n, err)
			}
			sameVec(t, "mod_exp_var_vec", got, want)

			want, err = seq.FixedBaseExpVec(bases[0], exps, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.FixedBaseExpVec(bases[0], exps, m)
			if err != nil {
				t.Fatalf("D=%d n=%d FixedBaseExpVec: %v", d, n, err)
			}
			sameVec(t, "fixed_base_exp_vec", got, want)

			want, err = seq.ModMulVec(bases, b2, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.ModMulVec(bases, b2, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModMulVec: %v", d, n, err)
			}
			sameVec(t, "mod_mul_vec", got, want)

			want, err = seq.RandCoprimeVec(n, nmod, 77)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.RandCoprimeVec(n, nmod, 77)
			if err != nil {
				t.Fatalf("D=%d n=%d RandCoprimeVec: %v", d, n, err)
			}
			sameVec(t, "rand_coprime_vec", got, want)

			// Chunked nonce ranges stitch to the whole-batch stream no matter
			// the shard layout.
			lo, err := sh.RandCoprimeRange(0, n/2+1, nmod, 77)
			if err != nil {
				t.Fatal(err)
			}
			hi, err := sh.RandCoprimeRange(n/2+1, n-(n/2+1), nmod, 77)
			if err != nil {
				t.Fatal(err)
			}
			sameVec(t, "rand_coprime_range", append(lo, hi...), want)
		}
	}
}

// TestShardedMidBatchKill: a device that dies mid-batch loses its shards to
// healthy peers and the result stays bit-exact with the sequential engine.
func TestShardedMidBatchKill(t *testing.T) {
	r := mpint.NewRNG(6)
	nmod := r.RandPrime(128)
	m := mpint.NewMont(nmod)
	const n = 40
	bases := randVec(r, n, nmod)
	exp := r.RandBits(96)

	seq := testEngine(t)
	want, err := seq.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}

	sh := testShardedEngine(t, 4)
	// Short backoff keeps the test fast; the scheduler's correctness must not
	// depend on the retry budget's timing.
	sh.Set().Device(2).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 3, KillAtLaunch: 1}))
	got, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatalf("sharded op with dead device: %v", err)
	}
	sameVec(t, "mod_exp_vec under kill", got, want)

	st := sh.Set().Stats()
	if st.Steals == 0 {
		t.Fatalf("expected stolen shards, set stats %+v", st)
	}
	if cs := sh.Stats(); cs.LaunchFaults == 0 {
		t.Fatalf("checked layer should have observed the faults: %+v", cs)
	}
	// Subsequent ops skip the dead device entirely and still match.
	got2, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "mod_exp_vec after kill", got2, want)
}

// TestShardedAllDevicesDeadFallsBackToHost: killing the whole set routes the
// op through the CPU engine, still bit-exact.
func TestShardedAllDevicesDeadFallsBackToHost(t *testing.T) {
	r := mpint.NewRNG(7)
	nmod := r.RandPrime(96)
	m := mpint.NewMont(nmod)
	const n = 12
	bases := randVec(r, n, nmod)
	exp := r.RandBits(64)

	sh := testShardedEngine(t, 2)
	for i := 0; i < 2; i++ {
		sh.Set().Device(i).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: uint64(i + 1), KillAtLaunch: 1}))
	}
	want, err := NewCPUEngine().ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatalf("host fallback: %v", err)
	}
	sameVec(t, "host fallback", got, want)
	if st := sh.Set().Stats(); st.HostShards == 0 {
		t.Fatalf("expected host-served shards: %+v", st)
	}
}

// TestCheckedNoHostFallbackSurfacesTypedError: a checked engine must surface
// typed kernel errors to the scheduler instead of silently serving from the
// CPU.
func TestCheckedNoHostFallbackSurfacesTypedError(t *testing.T) {
	dev := gpu.MustNew(gpu.SmallTestDevice(), true)
	dev.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}))
	c := MustCheckedEngine(MustEngine(dev), CheckedConfig{})
	r := mpint.NewRNG(8)
	nmod := r.RandPrime(96)
	m := mpint.NewMont(nmod)
	_, err := c.ModExpVec(randVec(r, 4, nmod), r.RandBits(32), m)
	if err == nil {
		t.Fatal("dead device must error")
	}
	if !gpu.IsKernelError(err) {
		t.Fatalf("want typed *gpu.KernelError, got %v", err)
	}
	if st := c.Stats(); st.FallbackOps != 0 {
		t.Fatalf("a checked engine must never serve from the host: %+v", st)
	}
	// The fellBack latch also surfaces typed, without touching the host.
	_, err = c.ModExpVec(randVec(r, 4, nmod), r.RandBits(32), m)
	if !gpu.IsKernelError(err) {
		t.Fatalf("latched failure must stay typed, got %v", err)
	}
}

// TestShardedStreamDevice: a one-device set pipelines on its only device; a
// multi-device set has no single stream device.
func TestShardedStreamDevice(t *testing.T) {
	one := testShardedEngine(t, 1)
	if one.StreamDevice() != one.Set().Device(0) {
		t.Fatal("one-device set must stream on its device")
	}
	if testShardedEngine(t, 2).StreamDevice() != nil {
		t.Fatal("multi-device set must report no stream device")
	}
}

// TestShardedPlacesPartialHostShard: on a one-device set, a host shard
// covering only part of the op lands in its slots of a full-length output.
func TestShardedPlacesPartialHostShard(t *testing.T) {
	s := testShardedEngine(t, 1)
	r := mpint.NewRNG(3)
	nmod := r.RandPrime(64)
	s.n = 4
	res := randVec(r, 2, nmod)
	if err := s.place(gpu.Shard{Lo: 2, Hi: 4}, res, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.out) != 4 || s.out[0] != nil || mpint.Cmp(s.out[3], res[1]) != 0 {
		t.Fatalf("partial shard placed as %v", s.out)
	}
}

// TestShardedFallbackCountsOps: an op the scheduler serves on the host
// counts as one fallback op, however many ranges the host served for it.
func TestShardedFallbackCountsOps(t *testing.T) {
	r := mpint.NewRNG(7)
	nmod := r.RandPrime(96)
	m := mpint.NewMont(nmod)
	sh := testShardedEngine(t, 2)
	for i := 0; i < 2; i++ {
		sh.Set().Device(i).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: uint64(i + 1), KillAtLaunch: 1}))
	}
	if _, err := sh.ModExpVec(randVec(r, 12, nmod), r.RandBits(64), m); err != nil {
		t.Fatal(err)
	}
	set := sh.Set().Stats()
	if set.HostOps != 1 || set.HostShards != 2 {
		t.Fatalf("want 1 host op over 2 host shards: %+v", set)
	}
	if st := sh.Stats(); st.FallbackOps != 1 || st.FallbackWall != set.HostSim {
		t.Fatalf("fallback counters %+v do not match the set's host fallback %+v", st, set)
	}
}
