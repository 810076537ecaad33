package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestShardedAllocParity: a one-device ShardedEngine is the only GPU
// substrate fl builds, so routing an op through the shard scheduler must
// cost no more allocations than the bare checked engine it wraps. Tiny
// vector ops dominate tree-based workloads (thousands of 2-item AddVecs per
// SecureBoost tree), where any per-op scheduler overhead multiplies.
func TestShardedAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := mpint.NewRNG(5)
	nmod := r.RandPrime(128)
	m := mpint.NewMont(nmod)
	a, b := randVec(r, 2, nmod), randVec(r, 2, nmod)

	checked := MustCheckedEngine(testEngine(t), CheckedConfig{})
	set, err := gpu.NewDeviceSet(gpu.SmallTestDevice(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEngine(set, CheckedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(e VectorEngine) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := e.ModMulVec(a, b, m); err != nil {
				t.Fatal(err)
			}
		})
	}
	c, s := measure(checked), measure(sharded)
	if s > c {
		t.Fatalf("ModMulVec allocates %v/op through a 1-device ShardedEngine, %v/op through a CheckedEngine", s, c)
	}
}
