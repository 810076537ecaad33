package main

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// ---- tracing -----------------------------------------------------------------

// span is one timed call from the benchmark into a module. Parent is nil for
// a root span.
type span struct {
	parent *span
	name   string
	start  time.Time
	dur    time.Duration
}

// tracer keeps the run's spans in memory.
type tracer struct {
	spans []*span
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) begin(parent *span, name string) *span {
	s := &span{parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) { s.dur = time.Since(s.start) }

// do runs fn inside a child span of parent.
func (t *tracer) do(parent *span, name string, fn func() error) error {
	s := t.begin(parent, name)
	err := fn()
	t.end(s)
	return err
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}

// self is s's duration minus the part its child spans cover.
func (t *tracer) self(s *span) time.Duration {
	d := s.dur
	for _, c := range t.spans {
		if c.parent == s {
			d -= c.dur
		}
	}
	return d
}

// ---- layer replay ------------------------------------------------------------

// replayStats counts the work a layer replay pushed through each layer, so
// span totals can be turned into per-item costs.
type replayStats struct {
	root                                     *span
	encryptCts, addCts, decryptCts, codecCts int
	quantValues, packValues, decodeValues    int
	slotUtil                                 float64
}

// replay re-runs the last step's quant → pack → encrypt → codec → add →
// decrypt → decode chain over the included clients' gradients, one span per
// layer call, and requires the decoded aggregate to equal the round's
// bit for bit. Nonces differ from the round's; plaintext sums do not.
func (w *aggWorkload) replay(t *tracer) (replayStats, error) {
	ctx := w.ctx
	pk := &ctx.Key.PublicKey
	st := replayStats{root: t.begin(nil, "replay")}
	defer t.end(st.root)
	if ctx.Packer == nil {
		return st, fmt.Errorf("profile has no batch packer")
	}
	st.slotUtil = ctx.Packer.PlaintextSpaceUtilization(w.dim)
	var acc []paillier.Ciphertext
	for n, name := range w.rep.Included {
		g := w.grads[w.index[name]]
		var q []uint64
		var pts []mpint.Nat
		var cts []paillier.Ciphertext
		var payload []byte
		var back []mpint.Nat
		_ = t.do(st.root, "quant", func() error { q = ctx.Quant.QuantizeVec(g); return nil })
		if err := t.do(st.root, "batch.pack", func() (err error) { pts, err = ctx.Packer.Pack(q); return }); err != nil {
			return st, err
		}
		if err := t.do(st.root, "paillier.encrypt", func() (err error) {
			cts, err = ctx.Backend.EncryptVec(pk, pts, stepSeed(w.seed, -2-n))
			return
		}); err != nil {
			return st, err
		}
		_ = t.do(st.root, "flnet.encode", func() error { payload = flnet.EncodeNats(ctNats(cts)); return nil })
		if err := t.do(st.root, "flnet.decode", func() (err error) { back, err = flnet.DecodeNats(payload); return }); err != nil {
			return st, err
		}
		in := natCts(back)
		st.quantValues += len(g)
		st.packValues += len(g)
		st.encryptCts += len(cts)
		st.codecCts += len(cts)
		if acc == nil {
			acc = in
			continue
		}
		if err := t.do(st.root, "paillier.add", func() (err error) { acc, err = ctx.Backend.AddVec(pk, acc, in); return }); err != nil {
			return st, err
		}
		st.addCts += len(in)
	}
	var pts []mpint.Nat
	var sums []float64
	if err := t.do(st.root, "paillier.decrypt", func() (err error) { pts, err = ctx.Backend.DecryptVec(ctx.Key, acc); return }); err != nil {
		return st, err
	}
	k := len(w.rep.Included)
	if err := t.do(st.root, "batch.decode", func() (err error) { sums, err = ctx.Packer.DecodeAggregated(pts, w.dim, k); return }); err != nil {
		return st, err
	}
	st.decryptCts += len(acc)
	st.decodeValues += len(sums)
	if k < w.parties {
		scale := float64(w.parties) / float64(k)
		for i := range sums {
			sums[i] *= scale
		}
	}
	for i := range sums {
		if math.Float64bits(sums[i]) != math.Float64bits(w.out[i]) {
			return st, fmt.Errorf("replayed aggregate differs from the round's at %d: %v vs %v", i, sums[i], w.out[i])
		}
	}
	return st, nil
}

// replay makes the HE calls of one SecureBoost histogram level through the
// Context methods HeteroSBT itself calls: one EncryptNats pass over the
// per-sample plaintexts, then for every host feature one ReduceSum per bin
// and one DecryptRaw of the feature's bin sums. The model's packed (g, h)
// plaintexts are internal to it, so the replay encrypts seeded 48-bit
// integers and cuts samples into bins by index; per-ciphertext costs follow
// the key, not these values. Every decrypted bin sum must equal the
// plaintext sum exactly.
func (w *sbtWorkload) replay(t *tracer) (replayStats, error) {
	const bins = 8 // models.HeteroSBT.Bins
	ctx := w.ctx
	st := replayStats{root: t.begin(nil, "replay")}
	defer t.end(st.root)
	parts, err := datasets.PartitionVertical(w.ds, w.parties)
	if err != nil {
		return st, err
	}
	n := w.ds.Len()
	rng := mpint.NewRNG(stepSeed(w.seed, -2))
	vals := make([]uint64, n)
	pts := make([]mpint.Nat, n)
	for i := range vals {
		vals[i] = rng.Uint64() >> 16 // sums over ≤ 2^16 samples fit 64 bits
		pts[i] = mpint.FromUint64(vals[i])
	}
	var cts []paillier.Ciphertext
	if err := t.do(st.root, "paillier.encrypt", func() (err error) {
		cts, err = ctx.EncryptNats(pts, int64(2*n))
		return
	}); err != nil {
		return st, err
	}
	st.encryptCts = len(cts)
	members := make([][]paillier.Ciphertext, bins)
	want := make([]uint64, bins)
	for s, c := range cts {
		members[s%bins] = append(members[s%bins], c)
		want[s%bins] += vals[s]
	}
	for _, part := range parts[1:] {
		for j := 0; j < part.NumFeatures; j++ {
			sums := make([]paillier.Ciphertext, bins)
			for b, list := range members {
				if err := t.do(st.root, "paillier.add", func() (err error) { sums[b], err = ctx.ReduceSum(list); return }); err != nil {
					return st, err
				}
				st.addCts += len(list) - 1
			}
			var got []uint64
			if err := t.do(st.root, "paillier.decrypt", func() (err error) { got, err = ctx.DecryptRaw(sums); return }); err != nil {
				return st, err
			}
			st.decryptCts += len(sums)
			for b := range got {
				if got[b] != want[b] {
					return st, fmt.Errorf("feature %d bin %d decrypted to %d, want %d", j, b, got[b], want[b])
				}
			}
		}
	}
	return st, nil
}

func ctNats(cts []paillier.Ciphertext) []mpint.Nat {
	out := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		out[i] = c.C
	}
	return out
}

func natCts(nats []mpint.Nat) []paillier.Ciphertext {
	out := make([]paillier.Ciphertext, len(nats))
	for i, x := range nats {
		out[i] = paillier.Ciphertext{C: x}
	}
	return out
}

// ---- mpint probe ---------------------------------------------------------------

// mpintProbe times Montgomery exponentiation and multiplication at the
// workload's ciphertext modulus n², on the exponent every encryption raises
// its nonce to (n), against math/big on the same operands in the same
// process. The two results must agree.
func mpintProbe(ctx *fl.Context, seed uint64, reps int) (expUs, mulNs, vsBig float64, err error) {
	n, n2 := ctx.Key.N, ctx.Key.N2
	mont := mpint.NewMont(n2)
	rng := mpint.NewRNG(seed ^ 0x6d70696e74)
	base := rng.RandBelow(n2)
	bigBase, bigN, bigN2 := toBig(base), toBig(n), toBig(n2)
	var expT, bigT, mulT []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		got := mont.Exp(base, n)
		expT = append(expT, float64(time.Since(start)))
		start = time.Now()
		want := new(big.Int).Exp(bigBase, bigN, bigN2)
		bigT = append(bigT, float64(time.Since(start)))
		if toBig(got).Cmp(want) != 0 {
			return 0, 0, 0, fmt.Errorf("mpint: Mont.Exp disagrees with math/big")
		}
	}
	a, b := mont.ToMont(rng.RandBelow(n2)), mont.ToMont(rng.RandBelow(n2))
	const muls = 256
	for r := 0; r < reps; r++ {
		x := a
		start := time.Now()
		for i := 0; i < muls; i++ {
			x = mont.Mul(x, b)
		}
		mulT = append(mulT, float64(time.Since(start))/muls)
	}
	return median(expT) / 1e3, median(mulT), median(expT) / median(bigT), nil
}

func toBig(x mpint.Nat) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

// ---- per-layer rows --------------------------------------------------------------

// layerMetrics runs the layer replay and the mpint probe after the timed
// loop and fills res.perLayer. Each row names the module whose public
// functions or exported counters it reads.
func layerMetrics(res *runResult, w workload, sz size, seed uint64, steps, det []stepRecord, setup setupParts, mem *runtime.MemStats) {
	ctx := w.context()
	// Device and fault counters describe the timed steps, so read them
	// before the replay adds its own HE work.
	util, fr := ctx.Utilization(), ctx.FaultReport().Checked
	t := newTracer()
	rs, replayErr := w.replay(t)
	expUs, mulNs, vsBig, probeErr := mpintProbe(ctx, seed, sz.minSteps+1)
	bitExact := 1.0
	if replayErr != nil {
		bitExact = 0
		res.layerErr = "layer replay: " + replayErr.Error()
	} else if probeErr != nil {
		res.layerErr = probeErr.Error()
	}

	var traced, untraced []float64
	var dev gpu.Stats
	for _, s := range steps {
		if !s.traced {
			untraced = append(untraced, float64(s.host)/float64(s.ref))
			continue
		}
		traced = append(traced, float64(s.host)/float64(s.ref))
		dev.KernelLaunches += s.dev.KernelLaunches
		dev.SimComputeTime += s.dev.SimComputeTime
		dev.SimTransferTime += s.dev.SimTransferTime
		dev.WallKernelTime += s.dev.WallKernelTime
	}
	nTraced := float64(len(traced))
	detN := float64(len(det))
	perItem := func(name string, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(t.total(name)) / float64(n) / float64(unit)
	}
	var sum fl.CostSnapshot
	phases := map[string]float64{}
	var residualNs float64
	for _, s := range det {
		sum.HEOps += s.costs.HEOps
		sum.CommMsgs += s.costs.CommMsgs
		sum.CommBytes += s.costs.CommBytes
		sum.CommSim += s.costs.CommSim
		sum.Plainvals += s.costs.Plainvals
		sum.Ciphertexts += s.costs.Ciphertexts
		if s.anatomy == nil {
			continue
		}
		var rows int64
		for _, p := range s.anatomy.Phases {
			name := p.Phase
			if name == "contribute" {
				name = "upload" // tree rounds interleave upload and gather in one phase
			}
			phases[name] += float64(p.OverlappedSimNs())
			rows += p.OverlappedSimNs()
		}
		residualNs += float64(s.simNs - rows)
	}
	var selfMs []float64
	var retries int64
	var peakCts int64
	var dropped int
	var pauseNs uint64
	for _, s := range steps {
		selfMs = append(selfMs, ms(s.wall-s.costs.HEWall-s.costs.EncodeWall))
		retries += s.costs.RetryMsgs
		peakCts = max(peakCts, s.peakCts)
		dropped += s.dropped
		pauseNs += s.pauseNs
	}
	flSelf, modelsSelf, heOps := median(selfMs), 0.0, 0.0
	if w.report() == nil {
		flSelf, modelsSelf, heOps = 0, median(selfMs), float64(sum.HEOps)/detN
	}
	valuesPerCt := 0.0
	if sum.Ciphertexts > 0 {
		valuesPerCt = float64(sum.Plainvals) / float64(sum.Ciphertexts)
	}

	L := &res.perLayer
	L.add("mpint.exp_host_us", "us", expUs)
	L.add("mpint.mul_host_ns", "ns", mulNs)
	L.add("mpint.exp_vs_big", "ratio", vsBig)
	L.add("gpu.kernel_sim_ms", "ms", ms(dev.SimComputeTime)/nTraced)
	L.add("gpu.transfer_sim_ms", "ms", ms(dev.SimTransferTime)/nTraced)
	L.add("gpu.launches", "count", float64(dev.KernelLaunches)/nTraced)
	L.add("gpu.kernel_host_ms", "ms", ms(dev.WallKernelTime)/nTraced)
	L.add("gpu.util", "ratio", util)
	L.add("ghe.retries", "count", float64(fr.Retries))
	L.add("ghe.fallbacks", "count", float64(fr.FallbackOps))
	L.add("ghe.verify_failures", "count", float64(fr.VerifyFailures))
	L.add("paillier.encrypt_us_per_ct", "us", perItem("paillier.encrypt", rs.encryptCts, time.Microsecond))
	L.add("paillier.add_us_per_ct", "us", perItem("paillier.add", rs.addCts, time.Microsecond))
	L.add("paillier.decrypt_us_per_ct", "us", perItem("paillier.decrypt", rs.decryptCts, time.Microsecond))
	L.add("paillier.encrypt_cts", "count", float64(rs.encryptCts))
	L.add("paillier.add_cts", "count", float64(rs.addCts))
	L.add("paillier.decrypt_cts", "count", float64(rs.decryptCts))
	L.add("paillier.ct_wire_bytes", "bytes", float64(ctx.CiphertextWireBytes(1)))
	L.add("quant.quantize_ns_per_value", "ns", perItem("quant", rs.quantValues, time.Nanosecond))
	L.add("batch.pack_ns_per_value", "ns", perItem("batch.pack", rs.packValues, time.Nanosecond))
	L.add("batch.decode_ns_per_value", "ns", perItem("batch.decode", rs.decodeValues, time.Nanosecond))
	L.add("batch.values_per_ct", "ratio", valuesPerCt)
	L.add("batch.slot_util", "ratio", rs.slotUtil)
	L.add("flnet.encode_ns_per_ct", "ns", perItem("flnet.encode", rs.codecCts, time.Nanosecond))
	L.add("flnet.decode_ns_per_ct", "ns", perItem("flnet.decode", rs.codecCts, time.Nanosecond))
	L.add("flnet.msgs", "count", float64(sum.CommMsgs)/detN)
	L.add("flnet.bytes", "bytes", float64(sum.CommBytes)/detN)
	L.add("flnet.comm_sim_ms", "ms", ms(sum.CommSim)/detN)
	L.add("flnet.retries", "count", float64(retries))
	for _, p := range []string{"upload", "gather", "aggregate", "broadcast", "decrypt"} {
		L.add("fl."+p+"_sim_ms", "ms", phases[p]/detN/1e6)
	}
	L.add("fl.anatomy_residual_ns", "ns", residualNs/detN)
	L.add("fl.self_host_ms", "ms", flSelf)
	L.add("fl.peak_live_cts", "count", float64(peakCts))
	L.add("fl.dropped", "count", float64(dropped))
	L.add("models.self_host_ms", "ms", modelsSelf)
	L.add("models.he_ops", "count", heOps)
	L.add("setup.keygen_s", "s", setup.keygen.Seconds())
	L.add("setup.data_s", "s", setup.data.Seconds())
	L.add("go.gc_pause_ms", "ms", float64(pauseNs)/1e6/float64(len(steps)))
	L.add("go.heap_peak_mb", "MiB", float64(mem.HeapSys)/(1<<20))
	L.add("obs.trace_overhead_frac", "ratio", median(traced)/median(untraced)-1)
	L.add("replay.bit_exact", "count", bitExact)
	L.add("replay.unattributed_ms", "ms", ms(t.self(rs.root)))
	L.add("oracle.agg_err_max", "abs", res.aggErrMax)
	L.add("oracle.loss_bias", "ratio", res.lossBias)
}
