package ghe

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// SimClock is an engine exposing a modelled online clock. A DeviceSet-backed
// engine has no single *gpu.Device for callers to read timings from; they
// read SimNow deltas instead.
type SimClock interface {
	// SimNow returns the engine's current modelled online time.
	SimNow() time.Duration
}

// OfflineEngine is an engine whose accrued cost can be reclassified as
// offline precompute (nonce-pool refills). BeginOffline marks the clocks;
// the returned func moves everything accrued since the mark into the
// precompute bill and returns the duration moved.
type OfflineEngine interface {
	BeginOffline() func() time.Duration
}

// ShardedEngine runs every vector HE op across a gpu.DeviceSet: the op
// splits into contiguous shards, each shard executes on its member device
// under the per-device checked discipline (retry + spot-verification; the
// scheduler owns failover), and shard results land in their exact
// positions of one output vector. Bit-exactness with a sequential engine
// holds by construction: every element is computed by the same kernel
// arithmetic at the same index, and nonce streams stay keyed by global item
// position, so no schedule — including mid-batch device death and work
// stealing — can change a single output bit.
type ShardedEngine struct {
	set  *gpu.DeviceSet
	subs []*CheckedEngine
	host *CPUEngine

	// mu serializes ops (the set runs one at a time anyway) and guards the
	// in-flight op and its output. runShard and hostShard are bound once, so
	// dispatching an op builds no closures.
	mu        sync.Mutex
	op        vecOp
	n         int
	out       []mpint.Nat
	runShard  func(dev int, sh gpu.Shard) error
	hostShard func(sh gpu.Shard) error
}

// opKind names the vector op a vecOp describes.
type opKind uint8

const (
	opModExp opKind = iota
	opModExpVar
	opFixedBaseExp
	opModMul
	opRandCoprime
)

// vecOp is one vector op as data: the sharded engine hands any item range
// of it to a member's checked engine or to the host without building a
// closure per op.
type vecOp struct {
	kind opKind
	// a holds the bases (or first factors); b the per-item exponents (or
	// second factors).
	a, b []mpint.Nat
	// x is the shared exponent of opModExp, the shared base of
	// opFixedBaseExp, and the modulus of opRandCoprime.
	x    mpint.Nat
	m    *mpint.Mont
	base int // opRandCoprime: stream position of item 0
	seed uint64
}

// run executes items [sh.Lo, sh.Hi) of op on e.
func (op *vecOp) run(e StreamEngine, sh gpu.Shard) ([]mpint.Nat, error) {
	switch op.kind {
	case opModExp:
		return e.ModExpVec(op.a[sh.Lo:sh.Hi], op.x, op.m)
	case opModExpVar:
		return e.ModExpVarVec(op.a[sh.Lo:sh.Hi], op.b[sh.Lo:sh.Hi], op.m)
	case opFixedBaseExp:
		return e.FixedBaseExpVec(op.x, op.b[sh.Lo:sh.Hi], op.m)
	case opModMul:
		return e.ModMulVec(op.a[sh.Lo:sh.Hi], op.b[sh.Lo:sh.Hi], op.m)
	default:
		return e.RandCoprimeRange(op.base+sh.Lo, sh.Len(), op.x, op.seed)
	}
}

// The sharded substrate is a drop-in streamed engine.
var (
	_ VectorEngine  = (*ShardedEngine)(nil)
	_ StreamEngine  = (*ShardedEngine)(nil)
	_ SimClock      = (*ShardedEngine)(nil)
	_ OfflineEngine = (*ShardedEngine)(nil)
)

// NewShardedEngine wraps a device set. Each member device gets its own
// CheckedEngine with the given policy; a shard the device cannot serve
// surfaces its typed fault to the scheduler, which re-queues it.
func NewShardedEngine(set *gpu.DeviceSet, cfg CheckedConfig) (*ShardedEngine, error) {
	if set == nil {
		return nil, fmt.Errorf("ghe: NewShardedEngine needs a device set")
	}
	subs := make([]*CheckedEngine, set.Size())
	for i := range subs {
		eng, err := NewEngine(set.Device(i))
		if err != nil {
			return nil, err
		}
		sub, err := NewCheckedEngine(eng, cfg)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	s := &ShardedEngine{set: set, subs: subs, host: NewCPUEngine()}
	s.runShard = func(dev int, sh gpu.Shard) error {
		res, err := s.op.run(s.subs[dev], sh)
		return s.place(sh, res, err)
	}
	s.hostShard = func(sh gpu.Shard) error {
		res, err := s.op.run(s.host, sh)
		return s.place(sh, res, err)
	}
	return s, nil
}

// Set exposes the underlying device set.
func (s *ShardedEngine) Set() *gpu.DeviceSet { return s.set }

// StreamDevice implements StreamEngine. On a one-device set it is that
// device: callers schedule their chunks on its streams, and the stream
// credit lands on the device counters outside any set wave, so the set's
// merged clock (SimNow), which callers read for cost, stays the sequential
// span. A multi-device set has no single device to pipeline on, so it
// returns nil and callers skip per-chunk overlap scheduling.
func (s *ShardedEngine) StreamDevice() *gpu.Device {
	if s.set.Size() == 1 {
		return s.set.Device(0)
	}
	return nil
}

// SimNow implements SimClock: the set's merged online clock.
func (s *ShardedEngine) SimNow() time.Duration { return s.set.SimTime() }

// BeginOffline implements OfflineEngine by bracketing the whole set.
func (s *ShardedEngine) BeginOffline() func() time.Duration { return s.set.BeginOffline() }

// Stats aggregates the checked-layer counters across the member engines.
// Host fallback is the scheduler's: an op it served on the host once no
// device was left counts as one fallback op, and the host's wall time as
// fallback wall.
func (s *ShardedEngine) Stats() CheckedStats {
	set := s.set.Stats()
	agg := CheckedStats{FallbackOps: set.HostOps, FallbackWall: set.HostSim}
	for _, sub := range s.subs {
		st := sub.Stats()
		agg.Ops += st.Ops
		agg.LaunchFaults += st.LaunchFaults
		agg.Retries += st.Retries
		agg.VerifySamples += st.VerifySamples
		agg.VerifyFailures += st.VerifyFailures
		agg.BackoffSim += st.BackoffSim
		agg.FellBack = agg.FellBack || st.FellBack
	}
	return agg
}

// PublishMetrics publishes the aggregate checked-layer and comb-table
// counters under prefix, plus per-device rows under prefix+".dev<i>".
func (s *ShardedEngine) PublishMetrics(reg *obs.Registry, prefix string) {
	agg := s.Stats()
	reg.Set(prefix+".ops", agg.Ops)
	reg.Set(prefix+".launch_faults", agg.LaunchFaults)
	reg.Set(prefix+".retries", agg.Retries)
	reg.Set(prefix+".verify_samples", agg.VerifySamples)
	reg.Set(prefix+".verify_failures", agg.VerifyFailures)
	reg.Set(prefix+".fallback_ops", agg.FallbackOps)
	reg.Set(prefix+".fallback_wall_ns", int64(agg.FallbackWall))
	reg.Set(prefix+".backoff_sim_ns", int64(agg.BackoffSim))
	var tables TableStats
	for _, sub := range s.subs {
		ts := sub.eng.TableStats()
		tables.Builds += ts.Builds
		tables.Entries += ts.Entries
		tables.Ops += ts.Ops
	}
	reg.Set(prefix+".table_builds", tables.Builds)
	reg.Set(prefix+".table_entries", tables.Entries)
	reg.Set(prefix+".table_ops", tables.Ops)
	fell := 0.0
	if agg.FellBack {
		fell = 1
	}
	reg.SetGauge(prefix+".fell_back", fell)
	for i, sub := range s.subs {
		sub.PublishMetrics(reg, fmt.Sprintf("%s.dev%d", prefix, i))
	}
}

// run shards one n-element vector op across the set: each shard runs on
// its member's checked engine, or on the host once every device is
// excluded, and its results land in the shard's slots of the output.
func (s *ShardedEngine) run(name string, n int, bytesPerItem int64, op vecOp) ([]mpint.Nat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.op, s.n, s.out = op, n, nil
	if s.set.Size() > 1 {
		// Shards land concurrently in their slots of one output vector.
		s.out = make([]mpint.Nat, n)
	}
	err := s.set.Run(gpu.ShardOp{
		Name:         name,
		Items:        n,
		BytesPerItem: bytesPerItem,
		Run:          s.runShard,
		Host:         s.hostShard,
	})
	out := s.out
	s.op, s.out = vecOp{}, nil
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = make([]mpint.Nat, n) // n == 0: nothing ran
	}
	return out, nil
}

// place stores one finished shard's results in its slots of the output.
// The output is nil only on a one-device set, whose shards run one at a
// time: a shard covering the whole op becomes the output as it is, and any
// other shard allocates the output before copying into it.
func (s *ShardedEngine) place(sh gpu.Shard, res []mpint.Nat, err error) error {
	if err != nil {
		return err
	}
	if len(res) != sh.Len() {
		return fmt.Errorf("ghe: sharded op returned %d elements for %d-item shard", len(res), sh.Len())
	}
	if s.out == nil {
		if sh.Lo == 0 && sh.Hi == s.n {
			s.out = res
			return nil
		}
		s.out = make([]mpint.Nat, s.n)
	}
	copy(s.out[sh.Lo:sh.Hi], res)
	return nil
}

// ModExpVec implements VectorEngine.
func (s *ShardedEngine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return s.run("mod_exp_vec", len(bases), int64(m.Limbs())*4,
		vecOp{kind: opModExp, a: bases, x: exp, m: m})
}

// ModExpVarVec implements VectorEngine.
func (s *ShardedEngine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec length mismatch %d vs %d", len(bases), len(exps))
	}
	return s.run("mod_exp_var_vec", len(bases), int64(m.Limbs())*8,
		vecOp{kind: opModExpVar, a: bases, b: exps, m: m})
}

// FixedBaseExpVec implements VectorEngine. Each shard builds its member
// device's own comb table — the per-element results are canonical residues
// either way, so the shard boundary cannot change a bit.
func (s *ShardedEngine) FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return s.run("fixed_base_exp_vec", len(exps), int64(m.Limbs())*4,
		vecOp{kind: opFixedBaseExp, b: exps, x: base, m: m})
}

// ModMulVec implements VectorEngine.
func (s *ShardedEngine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec length mismatch %d vs %d", len(a), len(b))
	}
	return s.run("mod_mul_vec", len(a), int64(m.Limbs())*8,
		vecOp{kind: opModMul, a: a, b: b, m: m})
}

// RandCoprimeVec implements VectorEngine. The stream stays keyed by global
// item index: shard [Lo, Hi) draws positions [Lo, Hi) of the (seed, m)
// stream no matter which device serves it, so pooled nonces are bit-exact
// across every D and every fault schedule.
func (s *ShardedEngine) RandCoprimeVec(n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	return s.RandCoprimeRange(0, n, m, seed)
}

// RandCoprimeRange implements StreamEngine with the same global-position
// keying: shard [Lo, Hi) of a range at `base` covers stream positions
// [base+Lo, base+Hi).
func (s *ShardedEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	if base < 0 {
		return nil, fmt.Errorf("ghe: RandCoprimeRange negative base %d", base)
	}
	return s.run("rand_coprime_vec", n, int64((m.BitLen()+31)/32)*4,
		vecOp{kind: opRandCoprime, x: m, base: base, seed: seed})
}
