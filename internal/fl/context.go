package fl

import (
	"fmt"
	"strings"
	"time"

	"flbooster/internal/batch"
	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// Context is one acceleration configuration instantiated: the Paillier key,
// the HE backend the profile selects, the encoding-quantization and batch-
// compression layers, the (possibly nil) GPU device set, the link model,
// and the cost tracker every operation reports into. It implements the
// pipelined processing of Fig. 4.
type Context struct {
	Profile Profile
	Key     *paillier.PrivateKey
	Backend paillier.Backend
	Quant   *quant.Quantizer
	Packer  *batch.Packer // nil when batch compression is off
	// DevSet is the GPU substrate of every GPU profile: max(Devices, 1)
	// devices behind Sharded, the checked, sharded vector engine. Both are
	// nil on CPU profiles.
	DevSet  *gpu.DeviceSet
	Sharded *ghe.ShardedEngine
	// Device is DevSet.Device(0), kept as a read-only alias for callers that
	// read one device's counters; nil on CPU profiles.
	Device *gpu.Device
	Pool   *paillier.NoncePool // nil unless Profile.NoncePool > 0 on a GPU profile
	Link   flnet.Link
	Costs  *Costs
	// Obs is the observability bundle (span recorder + metrics registry)
	// attached via AttachObs or Profile.Observe; nil means tracing/metrics
	// are off and every instrumentation call is a no-op.
	Obs       *obs.Obs
	obsPrefix string
	seed      uint64
}

// NewContext builds a context from a profile, generating a fresh key pair
// from the profile's seed.
func NewContext(p Profile) (*Context, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx := &Context{
		Profile: p,
		Link:    flnet.FATEEffectiveLink(),
		Costs:   &Costs{},
		seed:    p.Seed,
	}
	q, err := quant.New(p.GradBound, p.RBits, p.Parties)
	if err != nil {
		return nil, err
	}
	ctx.Quant = q
	if p.UseBatch {
		pk, err := batch.New(q, p.KeyBits)
		if err != nil {
			return nil, err
		}
		ctx.Packer = pk
	}
	if p.UseGPU {
		set, err := gpu.NewDeviceSet(p.Device, p.FineRM, max(p.Devices, 1))
		if err != nil {
			return nil, err
		}
		if p.Faults.Inject.Enabled() {
			// Each member fails independently: derive a distinct injector seed
			// per device so a profile-driven fault pattern does not kill the
			// whole fleet in lockstep. Device 0 keeps the profile's seed.
			for i := 0; i < set.Size(); i++ {
				cfg := p.Faults.Inject
				cfg.Seed += uint64(i) * 0x9e3779b97f4a7c15
				set.Device(i).SetFaultInjector(gpu.NewFaultInjector(cfg))
			}
		}
		// Every member runs the checked discipline (retry with backoff,
		// sampled verification); the shard scheduler moves a dead member's
		// work to its peers and, once none is left, to bit-exact host
		// execution.
		sharded, err := ghe.NewShardedEngine(set, p.Faults.Check)
		if err != nil {
			return nil, err
		}
		backend, err := paillier.NewGPUBackend(sharded)
		if err != nil {
			return nil, err
		}
		ctx.DevSet = set
		ctx.Sharded = sharded
		ctx.Device = set.Device(0)
		ctx.Backend = backend
	} else {
		ctx.Backend = paillier.CPUBackend{}
	}
	keyGen := paillier.GenerateKey
	if p.ClassicKey {
		// A classic random generator g makes the g^m term a full modular
		// exponentiation — the configuration where fixed-base precomputation
		// has something to accelerate on the encrypt path.
		keyGen = paillier.GenerateKeyClassic
	}
	key, err := keyGen(mpint.NewRNG(p.Seed), p.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("fl: key generation: %w", err)
	}
	ctx.Key = key
	if p.Observe {
		ctx.AttachObs(obs.New(p.Seed), string(p.System))
	}
	if p.UseGPU && p.NoncePool > 0 {
		pool, err := paillier.NewNoncePool(&key.PublicKey, ctx.Sharded, 0)
		if err != nil {
			return nil, err
		}
		if p.Chunk > 0 {
			pool.Chunk = p.Chunk
		}
		ctx.Pool = pool
		ctx.Backend.(*paillier.GPUBackend).Pool = pool
		if _, err := ctx.PrefillNonces(p.NoncePool); err != nil {
			return nil, fmt.Errorf("fl: nonce prefill: %w", err)
		}
	}
	return ctx, nil
}

// PrefillNonces retargets the nonce pool at the seed the next HE batch will
// draw and precomputes count rⁿ noise terms offline through the device
// pipeline, charged as SimPrecomputeTime rather than online sim-time — the
// "idle between rounds" work of the precompute layer. NewContext calls it
// once so the first encryption batch starts warm; callers may re-arm it
// between rounds. Returns the reclassified precompute time; a no-op without
// a pool.
func (c *Context) PrefillNonces(count int) (time.Duration, error) {
	if c.Pool == nil || count <= 0 {
		return 0, nil
	}
	c.Pool.Reseed(c.peekSeed())
	return c.Pool.Prefill(count)
}

// armPool re-arms the nonce pool for the HE batch about to run: retarget at
// the seed the batch will draw (the pool drops stale pairs from the previous
// batch) and top up to min(Profile.NoncePool, pts) noise terms. Without this
// every batch after the NewContext prefill silently ran unpooled — the pool
// only warms one seed, and nextSeed advances per batch. Called by both
// encrypt paths just before they consume the seed; a no-op without a pool.
func (c *Context) armPool(pts int) error {
	if c.Pool == nil || pts <= 0 {
		return nil
	}
	want := c.Profile.NoncePool
	if pts < want {
		want = pts
	}
	if c.Pool.Seed() != c.peekSeed() {
		c.Pool.Reseed(c.peekSeed())
	}
	_, err := c.Pool.Prefill(want)
	return err
}

// sanitizeLabel makes a label safe as a metric-name and trace-party segment.
func sanitizeLabel(label string) string {
	return strings.ReplaceAll(strings.TrimSpace(label), " ", "_")
}

// AttachObs wires the observability bundle into the context and its layers:
// the cost accumulator mirrors counters into o's registry under
// "fl.<label>", and the device set (if any) records sim-time spans under the
// party "<label>.gpu". A nil bundle detaches. Labels distinguish contexts
// sharing one bundle; an empty label falls back to the profile's system.
func (c *Context) AttachObs(o *obs.Obs, label string) {
	if label == "" {
		label = string(c.Profile.System)
	}
	label = sanitizeLabel(label)
	c.Obs = o
	c.obsPrefix = label
	c.Costs.Observe(o.Metrics(), "fl."+label)
	if c.DevSet != nil {
		c.DevSet.SetRecorder(o.Recorder(), label+".gpu")
	}
}

// ObsLabel returns the sanitized label AttachObs installed ("" when
// unattached).
func (c *Context) ObsLabel() string { return c.obsPrefix }

// PublishMetrics pulls the current layer statistics — device set, sharded
// engine, nonce pool — into the attached registry as absolute
// counters/gauges under "gpu.<label>", "ghe.<label>", and "pool.<label>".
// No-op without an attached bundle.
func (c *Context) PublishMetrics() {
	if c.Obs == nil {
		return
	}
	reg := c.Obs.Metrics()
	if c.DevSet != nil {
		c.DevSet.PublishMetrics(reg, "gpu."+c.obsPrefix)
		c.Sharded.PublishMetrics(reg, "ghe."+c.obsPrefix)
	}
	if c.Pool != nil {
		// "pool." sits outside the reconciled "fl.<label>" cost-mirror set:
		// pool traffic is substrate bookkeeping, not a protocol cost.
		st := c.Pool.Stats()
		pre := "pool." + c.obsPrefix + "."
		reg.Set(pre+"hits", st.Hits)
		reg.Set(pre+"misses", st.Misses)
		reg.Set(pre+"refills", st.Refills)
		reg.Set(pre+"precomputed", st.Precomputed)
		reg.Set(pre+"refill_sim_ns", int64(st.RefillSim))
		reg.SetGauge(pre+"ready", float64(c.Pool.Ready()))
	}
}

// ReconcileObs asserts the metrics registry's mirrored cost counters equal
// the CostSnapshot — the invariant that event-time metric publication and
// the accumulator never drift. Call at a quiescent point (no round in
// flight). Returns nil when unattached.
func (c *Context) ReconcileObs() error {
	if c.Obs == nil {
		return nil
	}
	reg := c.Obs.Metrics()
	s := c.Costs.Snapshot()
	pre := "fl." + c.obsPrefix + "."
	checks := []struct {
		name string
		want int64
	}{
		{"he_ops", s.HEOps},
		{"instances", s.Instances},
		{"he_sim_ns", int64(s.HESim)},
		{"comm_msgs", s.CommMsgs},
		{"comm_bytes", s.CommBytes},
		{"comm_sim_ns", int64(s.CommSim)},
		{"retry_msgs", s.RetryMsgs},
		{"pipe_chunks", s.PipeChunks},
		{"pipe_seq_ns", int64(s.PipeSeqSim)},
		{"pipe_ns", int64(s.PipeSim)},
		{"late_chunks", s.LateChunks},
		{"late_bytes", s.LateBytes},
		{"plainvals", s.Plainvals},
		{"ciphertexts", s.Ciphertexts},
		{"encode_sim_ns", int64(s.EncodeSim)},
		{"encode_vals", s.EncodeVals},
		{"comp_sim_ns", int64(s.CompSim)},
	}
	for _, ck := range checks {
		if got := reg.Counter(pre + ck.name); got != ck.want {
			return fmt.Errorf("fl: metrics/cost drift: %s%s = %d, snapshot says %d", pre, ck.name, got, ck.want)
		}
	}
	return c.reconcileDevSet(reg)
}

// reconcileDevSet asserts the published per-device metric rows sum to the
// device set's aggregate row for every additive counter — the invariant that
// sharded dispatch never loses or double-counts device work. Publishes first
// so the rows reflect current stats; a no-op on CPU profiles.
func (c *Context) reconcileDevSet(reg *obs.Registry) error {
	if c.DevSet == nil {
		return nil
	}
	c.PublishMetrics()
	pre := "gpu." + c.obsPrefix
	additive := []string{
		"launches", "threads", "warps", "bytes_h2d", "bytes_d2h",
		"sim_transfer_ns", "sim_compute_ns", "sim_fault_ns",
		"sim_precompute_ns", "launch_failures", "watchdog_trips",
	}
	for _, name := range additive {
		var sum int64
		for i := 0; i < c.DevSet.Size(); i++ {
			sum += reg.Counter(fmt.Sprintf("%s.dev%d.%s", pre, i, name))
		}
		if agg := reg.Counter(pre + "." + name); agg != sum {
			return fmt.Errorf("fl: device-set drift: %s.%s = %d, per-device rows sum to %d", pre, name, agg, sum)
		}
	}
	return nil
}

// SimCost returns the context's sim cost clock: modelled HE, wire, encode,
// and model-compute time accrued so far. Round phases are stamped on this
// clock, so spans from the cost-model path line up with the device and
// pipeline spans.
func (c *Context) SimCost() time.Duration {
	s := c.Costs.Snapshot()
	return s.HESim + s.CommSim + s.EncodeSim + s.CompSim
}

// metricAdd bumps one protocol counter under the context's "fl.<label>."
// prefix; a no-op without an attached bundle. These counters sit outside
// the cost-mirror set, so they survive Costs.Reset and are not reconciled.
func (c *Context) metricAdd(name string, delta int64) {
	if c.Obs == nil || delta == 0 {
		return
	}
	c.Obs.Metrics().Add("fl."+c.obsPrefix+"."+name, delta)
}

// metricMax raises one high-water counter under the context's "fl.<label>."
// prefix; a no-op without an attached bundle. Like metricAdd these sit
// outside the reconciled cost-mirror set.
func (c *Context) metricMax(name string, v int64) {
	if c.Obs == nil {
		return
	}
	c.Obs.Metrics().SetMax("fl."+c.obsPrefix+"."+name, v)
}

// SeedCursor returns the nonce-stream cursor: the state nextSeed advances
// once per HE batch. Journaling it at round boundaries is what makes crash
// recovery bit-exact — a recovered coordinator restores the cursor and every
// re-encrypted batch draws the same nonce stream the lost attempt would have.
func (c *Context) SeedCursor() uint64 { return c.seed }

// RestoreSeedCursor rewinds (or fast-forwards) the nonce-stream cursor to a
// journaled position and re-arms the nonce pool, if any, at the batch the
// cursor implies.
func (c *Context) RestoreSeedCursor(cursor uint64) {
	c.seed = cursor
	if c.Pool != nil {
		c.Pool.Reseed(c.peekSeed())
	}
}

// nextSeed derives a fresh nonce-stream seed per HE batch.
func (c *Context) nextSeed() uint64 {
	c.seed = c.peekSeed()
	return c.seed
}

// peekSeed returns the seed nextSeed will hand the next HE batch without
// consuming it, so the pool can warm exactly that batch's nonce stream.
func (c *Context) peekSeed() uint64 {
	return c.seed*6364136223846793005 + 1442695040888963407
}

// simBase and simSince read the device set's modelled time before/after a
// batch. For CPU profiles the modelled time equals the measured wall time.
func (c *Context) simBase() time.Duration {
	if c.DevSet == nil {
		return 0
	}
	return c.DevSet.SimTime()
}

func (c *Context) simSince(base time.Duration, wall time.Duration) time.Duration {
	if c.DevSet == nil {
		return wall
	}
	return c.DevSet.SimTime() - base
}

// EncodePlaintexts converts a gradient vector into HE plaintexts: always
// quantized (Encoding-Quantization layer); packed n-per-plaintext when batch
// compression is on, one-per-plaintext otherwise.
func (c *Context) EncodePlaintexts(grads []float64) ([]mpint.Nat, error) {
	vals := c.Quant.QuantizeVec(grads)
	if c.Packer != nil {
		return c.Packer.Pack(vals)
	}
	out := make([]mpint.Nat, len(vals))
	for i, v := range vals {
		out[i] = mpint.FromUint64(v)
	}
	return out, nil
}

// DecodeAggregates inverts EncodePlaintexts for aggregated sums over
// `parties` contributions, producing `count` gradient values.
func (c *Context) DecodeAggregates(pts []mpint.Nat, count, parties int) ([]float64, error) {
	if c.Packer != nil {
		return c.Packer.DecodeAggregated(pts, count, parties)
	}
	if len(pts) != count {
		return nil, fmt.Errorf("fl: %d plaintexts for %d values", len(pts), count)
	}
	sums := make([]uint64, count)
	for i, pt := range pts {
		v, ok := pt.Uint64()
		if !ok {
			return nil, fmt.Errorf("fl: aggregated slot %d overflows 64 bits", i)
		}
		sums[i] = v
	}
	return c.Quant.DequantizeSumVec(sums, parties)
}

// PlaintextCount returns how many HE plaintexts carry n gradient values
// under the context's encoding (packed or one-per-value).
func (c *Context) PlaintextCount(n int) int {
	if n <= 0 {
		return 0
	}
	if c.Packer != nil {
		return c.Packer.NumPlaintexts(n)
	}
	return n
}

// EncryptGradientsStream runs the client-side encryption phase chunked:
// the gradient vector is quantized once, then packed and encrypted
// Profile.Chunk plaintexts at a time through the backend's streaming
// session. Chunk boundaries align to plaintext groups, and the nonce stream
// is indexed by global position, so the concatenated ciphertexts are
// bit-exact with the whole-batch EncryptGradients path. emit receives each
// chunk in order with its sequential HE sim cost; an emit error stops the
// stream and is returned. An empty gradient vector emits one empty chunk so
// protocol consumers still see the upload.
func (c *Context) EncryptGradientsStream(grads []float64, emit func(index int, cts []paillier.Ciphertext, heSim time.Duration) error) error {
	sb, ok := c.Backend.(paillier.StreamBackend)
	if !ok {
		return fmt.Errorf("fl: backend %s does not support streamed encryption", c.Backend.Name())
	}
	totalPts := c.PlaintextCount(len(grads))
	chunk := c.Profile.Chunk
	if chunk <= 0 || chunk > totalPts {
		chunk = totalPts
	}
	if totalPts == 0 {
		return emit(0, nil, 0)
	}
	encStart := time.Now()
	vals := c.Quant.QuantizeVec(grads)
	c.Costs.AddEncode(time.Since(encStart), encodeSim(len(grads)), int64(len(grads)))
	slots := 1
	if c.Packer != nil {
		slots = c.Packer.Slots()
	}
	if err := c.armPool(totalPts); err != nil {
		return err
	}
	sess, err := sb.BeginEncrypt(&c.Key.PublicKey, c.nextSeed())
	if err != nil {
		return err
	}
	defer sess.Close()
	var totalCts int64
	for index, base := 0, 0; base < totalPts; index, base = index+1, base+chunk {
		endPt := base + chunk
		if endPt > totalPts {
			endPt = totalPts
		}
		lo, hi := base*slots, endPt*slots
		if hi > len(vals) {
			hi = len(vals)
		}
		var pts []mpint.Nat
		if c.Packer != nil {
			// Pack works in independent groups of `slots` values, so packing
			// an aligned sub-slice reproduces the whole-batch plaintexts.
			pts, err = c.Packer.Pack(vals[lo:hi])
			if err != nil {
				return err
			}
		} else {
			pts = make([]mpint.Nat, hi-lo)
			for i, v := range vals[lo:hi] {
				pts[i] = mpint.FromUint64(v)
			}
		}
		start := time.Now()
		cts, seqSim, err := sess.Next(pts)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		heSim := seqSim
		if c.DevSet == nil {
			heSim = wall
		}
		c.Costs.AddHE(wall, heSim, int64(len(cts)), int64(hi-lo))
		totalCts += int64(len(cts))
		if err := emit(index, cts, heSim); err != nil {
			return err
		}
	}
	c.Costs.AddCompression(int64(len(grads)), totalCts)
	return nil
}

// EncryptGradients runs the full client-side encryption phase (steps ①–④ of
// Fig. 4): encode, quantize, pack, encrypt. Costs are charged to the HE
// component; the plainval/ciphertext counts feed the compression ratio.
// With a positive Profile.Chunk the phase runs through the streamed,
// device-pipelined path and returns the concatenated (bit-exact) result.
func (c *Context) EncryptGradients(grads []float64) ([]paillier.Ciphertext, error) {
	if c.Profile.Chunk > 0 {
		var out []paillier.Ciphertext
		if err := c.EncryptGradientsStream(grads, func(_ int, cts []paillier.Ciphertext, _ time.Duration) error {
			out = append(out, cts...)
			return nil
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	encStart := time.Now()
	pts, err := c.EncodePlaintexts(grads)
	if err != nil {
		return nil, err
	}
	c.Costs.AddEncode(time.Since(encStart), encodeSim(len(grads)), int64(len(grads)))
	if err := c.armPool(len(pts)); err != nil {
		return nil, err
	}
	base := c.simBase()
	start := time.Now()
	cts, err := c.Backend.EncryptVec(&c.Key.PublicKey, pts, c.nextSeed())
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(cts)), int64(len(grads)))
	c.Costs.AddCompression(int64(len(grads)), int64(len(cts)))
	return cts, nil
}

// AggregateCiphertexts homomorphically sums per-party ciphertext batches
// (the server side of Fig. 2). All batches must have equal length.
func (c *Context) AggregateCiphertexts(batches [][]paillier.Ciphertext) ([]paillier.Ciphertext, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("fl: no batches to aggregate")
	}
	acc := batches[0]
	for i := 1; i < len(batches); i++ {
		if len(batches[i]) != len(acc) {
			return nil, fmt.Errorf("fl: batch %d has %d ciphertexts, want %d", i, len(batches[i]), len(acc))
		}
		base := c.simBase()
		start := time.Now()
		sum, err := c.Backend.AddVec(&c.Key.PublicKey, acc, batches[i])
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(acc)), int64(len(acc)))
		acc = sum
	}
	return acc, nil
}

// AggregateGrouped homomorphically sums each group's per-party ciphertext
// batches through an independent paillier.Accumulator — one aggregation
// context per secure-aggregation group, so group sub-aggregates never mix.
// Every fold is charged to the HE component exactly like the single-group
// AggregateCiphertexts path.
func (c *Context) AggregateGrouped(groups [][][]paillier.Ciphertext) ([][]paillier.Ciphertext, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("fl: no groups to aggregate")
	}
	out := make([][]paillier.Ciphertext, len(groups))
	for g, batches := range groups {
		acc, err := paillier.NewAccumulator(&c.Key.PublicKey, c.Backend)
		if err != nil {
			return nil, err
		}
		for i, cts := range batches {
			if acc.Batches() == 0 {
				if err := acc.Add(cts); err != nil {
					return nil, fmt.Errorf("fl: group %d batch %d: %w", g, i, err)
				}
				continue
			}
			base := c.simBase()
			start := time.Now()
			if err := acc.Add(cts); err != nil {
				return nil, fmt.Errorf("fl: group %d batch %d: %w", g, i, err)
			}
			wall := time.Since(start)
			c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(cts)), int64(len(cts)))
		}
		sum, err := acc.Sum()
		if err != nil {
			return nil, fmt.Errorf("fl: group %d: %w", g, err)
		}
		out[g] = sum
	}
	return out, nil
}

// NewAggTree builds a hierarchical aggregation tree over this context's key
// and backend, with the cost model wired in: every fold into a non-empty
// level accumulator is charged to the HE component exactly like the flat
// AggregateCiphertexts path (the first child of a level is adopted by copy,
// not HE-added — mirroring AggregateGrouped), and every partial forwarded up
// a level is framed (flnet partial-aggregate framing) and charged to the
// communication component as interior-link traffic.
func (c *Context) NewAggTree(fanout int) (*AggTree, error) {
	newAcc := func() (*paillier.Accumulator, error) {
		return paillier.NewAccumulator(&c.Key.PublicKey, c.Backend)
	}
	fold := func(acc *paillier.Accumulator, cts []paillier.Ciphertext) (time.Duration, error) {
		if acc.Batches() == 0 {
			return 0, acc.Add(cts)
		}
		base := c.simBase()
		start := time.Now()
		if err := acc.Add(cts); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		sim := c.simSince(base, wall)
		c.Costs.AddHE(wall, sim, int64(len(cts)), int64(len(cts)))
		return sim, nil
	}
	forward := func(level int, cts []paillier.Ciphertext) {
		payload := flnet.EncodePartialAgg(uint32(level), encodeCiphertexts(cts))
		c.RecordTransfer(int64(len(payload)))
		c.metricAdd("tree_partials", 1)
	}
	return NewAggTree(fanout, newAcc, fold, forward)
}

// DecryptAggregated runs the decryption phase (steps ⑤–⑨ of Fig. 4) for an
// aggregate of `parties` contributions carrying `count` gradient values.
func (c *Context) DecryptAggregated(cts []paillier.Ciphertext, count, parties int) ([]float64, error) {
	base := c.simBase()
	start := time.Now()
	pts, err := c.Backend.DecryptVec(c.Key, cts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(cts)), int64(count))
	return c.DecodeAggregates(pts, count, parties)
}

// MulPlainCiphertexts multiplies each ciphertext by a plaintext scalar — the
// E(g)·x step vertical models use. Scalars are quantized values.
func (c *Context) MulPlainCiphertexts(cts []paillier.Ciphertext, scalars []mpint.Nat) ([]paillier.Ciphertext, error) {
	base := c.simBase()
	start := time.Now()
	out, err := c.Backend.MulPlainVec(&c.Key.PublicKey, cts, scalars)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(cts)), int64(len(cts)))
	return out, nil
}

// CiphertextWireBytes is the encoded size of a ciphertext batch on the wire.
func (c *Context) CiphertextWireBytes(n int) int64 {
	return int64(n) * (int64(c.Key.CiphertextBytes()) + 4)
}

// RecordTransfer charges one message of n bytes to the communication
// component through the link model.
func (c *Context) RecordTransfer(n int64) {
	c.Costs.AddComm(c.Link.TransferTime(n), n)
}

// TrackOther measures fn as model-computation ("other") time.
func (c *Context) TrackOther(fn func()) {
	start := time.Now()
	fn()
	c.Costs.AddOther(time.Since(start))
}

// Utilization reports the devices' average SM utilization (0 for CPU
// profiles) — the Fig. 6 reading.
func (c *Context) Utilization() float64 {
	if c.DevSet == nil {
		return 0
	}
	return c.DevSet.AvgUtilization()
}

// FaultReport aggregates the context's device fault, retry, and fallback
// counters — the resilience anatomy benchmarks print alongside sim/wall
// timings. CPU profiles report a healthy zero-valued record.
type FaultReport struct {
	// Health is the device health state ("healthy" when no device exists).
	Health gpu.HealthState
	// Injected counts the faults the injector decided, by kind.
	Injected gpu.FaultStats
	// LaunchFailures and WatchdogTrips are the device-observed failures.
	LaunchFailures int64
	WatchdogTrips  int64
	// SimFaultTime is the modelled time lost to faults (watchdog windows,
	// retry backoff, degraded host execution).
	SimFaultTime time.Duration
	// Checked is the checked-execution layer's retry/verify/fallback view.
	Checked ghe.CheckedStats
}

// FaultReport returns the current fault/resilience counters, summed over
// the device set: the worst member health, every member's injector
// decisions, and the sharded engine's checked-layer view. The wall time of
// ops the scheduler served on the host counts as fault time.
func (c *Context) FaultReport() FaultReport {
	if c.DevSet == nil {
		return FaultReport{Health: gpu.DeviceHealthy}
	}
	ds := c.DevSet.StatsSum()
	rep := FaultReport{
		Health:         ds.Health,
		LaunchFailures: ds.LaunchFailures,
		WatchdogTrips:  ds.WatchdogTrips,
		SimFaultTime:   ds.SimFaultTime + c.DevSet.Stats().HostSim,
		Checked:        c.Sharded.Stats(),
	}
	for _, d := range c.DevSet.Devices() {
		if fi := d.Injector(); fi != nil {
			fs := fi.Stats()
			rep.Injected.Launches += fs.Launches
			rep.Injected.Aborts += fs.Aborts
			rep.Injected.Corruptions += fs.Corruptions
			rep.Injected.Stalls += fs.Stalls
			rep.Injected.OOMs += fs.OOMs
			rep.Injected.Kills += fs.Kills
		}
	}
	return rep
}
