package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/models"
	"flbooster/internal/mpint"
)

// size fixes every workload dimension. fullSize is the benchmark; tinySize
// keeps the same code paths at sizes a unit test can afford.
type size struct {
	// silo-agg: cross-silo horizontal secure aggregation.
	siloKeyBits, siloParties, siloDim int
	// device-tree: cohort-sampled cross-device aggregation through a tree.
	treeKeyBits, treePopulation, treeCohort, treeDim, treeFanout, treeInflight int
	// vertical-sbt: Hetero SecureBoost on the Synthetic-shape dataset.
	sbtKeyBits, sbtParties int
	sbtScale               float64
	// setupReps is the least number of times a run sets the workload up;
	// setup_s is the median. Rep 0 is the instance that is measured.
	setupReps int
	// minSteps is the number of steps every run makes whatever its window;
	// the sim-clock and count metrics cover exactly these steps, so they are
	// a pure function of the seed.
	minSteps int
}

var (
	fullSize = size{
		siloKeyBits: 2048, siloParties: 4, siloDim: 1024,
		treeKeyBits: 256, treePopulation: 2000, treeCohort: 500, treeDim: 32, treeFanout: 16, treeInflight: 64,
		sbtKeyBits: 1024, sbtParties: 4, sbtScale: 0.002,
		setupReps: 5, minSteps: 4,
	}
	tinySize = size{
		siloKeyBits: 256, siloParties: 4, siloDim: 64,
		treeKeyBits: 128, treePopulation: 40, treeCohort: 10, treeDim: 8, treeFanout: 4, treeInflight: 4,
		sbtKeyBits: 256, sbtParties: 4, sbtScale: 0.0003,
		setupReps: 2, minSteps: 2,
	}
)

// builder sets a workload up on one seed.
type builder func(sz size, seed uint64) (workload, setupParts, error)

// The three workloads. Each stresses a different layer mix; BENCHMARK.json
// records why each is in the benchmark.
var workloads = map[string]builder{
	"silo-agg":     buildSilo,
	"device-tree":  buildTree,
	"vertical-sbt": buildSBT,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupParts splits one setup into input generation and key generation
// (fl.NewContext); the remainder of the setup is the federation or model
// build.
type setupParts struct {
	data, keygen time.Duration
}

// workload is one instantiated benchmark workload. prepare and check run
// outside the timed region; step is the timed unit of work.
type workload interface {
	context() *fl.Context
	// values is the number of plaintext input values one step submits,
	// counted from the benchmark's own inputs.
	values() int
	prepare(step int)
	step() error
	// check compares the last step's output with the plaintext oracle and
	// returns the observed error and the bound it must stay within.
	check() (errAbs, bound float64, err error)
	// report is the last round's report (nil for workloads without rounds).
	report() *fl.RoundReport
	// replay re-runs one step layer by layer through the modules' public
	// functions, recording a span per layer, and checks the chain's output.
	replay(t *tracer) (replayStats, error)
}

// stepSeed derives the input seed of one step.
func stepSeed(seed uint64, step int) uint64 {
	return seed*0x9E3779B97F4A7C15 ^ uint64(step+1)*0xBF58476D1CE4E5B9
}

// ---- aggregation workloads (silo-agg, device-tree) -------------------------

// aggWorkload drives one Federation.SecureAggregateReport per step on fresh
// seeded gradients.
type aggWorkload struct {
	ctx       *fl.Context
	fed       *fl.Federation
	seed      uint64
	parties   int // population the round scales to
	scheduled int // clients the round schedules (cohort size)
	dim       int
	index     map[string]int
	grads     [][]float64
	out       []float64
	rep       fl.RoundReport
}

func buildSilo(sz size, seed uint64) (workload, setupParts, error) {
	p := fl.NewProfile(fl.SystemFLBooster, sz.siloKeyBits, sz.siloParties)
	p.Seed = seed
	return buildAgg(p, sz.siloParties, sz.siloDim, seed)
}

func buildTree(sz size, seed uint64) (workload, setupParts, error) {
	p := fl.NewProfile(fl.SystemFLBooster, sz.treeKeyBits, sz.treePopulation)
	p.Seed = seed
	p.Cohort = fl.CohortPolicy{Size: sz.treeCohort, Fanout: sz.treeFanout, MaxInflight: sz.treeInflight}
	return buildAgg(p, sz.treeCohort, sz.treeDim, seed)
}

func buildAgg(p fl.Profile, scheduled, dim int, seed uint64) (workload, setupParts, error) {
	var parts setupParts
	w := &aggWorkload{seed: seed, parties: p.Parties, scheduled: scheduled, dim: dim}
	start := time.Now()
	w.grads = make([][]float64, p.Parties)
	w.index = make(map[string]int, p.Parties)
	for i := range w.grads {
		w.grads[i] = make([]float64, dim)
		w.index[fl.ClientName(i)] = i
	}
	w.prepare(0)
	parts.data = time.Since(start)
	start = time.Now()
	ctx, err := fl.NewContext(p)
	if err != nil {
		return nil, parts, err
	}
	parts.keygen = time.Since(start)
	w.ctx = ctx
	w.fed = fl.NewFederation(ctx)
	return w, parts, nil
}

func (w *aggWorkload) context() *fl.Context    { return w.ctx }
func (w *aggWorkload) values() int             { return w.scheduled * w.dim }
func (w *aggWorkload) report() *fl.RoundReport { return &w.rep }

// prepare draws every client's gradient for the step, uniform in
// [−0.5, 0.5) — inside the quantizer's bound α = 1, so no value is clipped.
func (w *aggWorkload) prepare(step int) {
	rng := mpint.NewRNG(stepSeed(w.seed, step))
	for _, g := range w.grads {
		for j := range g {
			g[j] = rng.Float64() - 0.5
		}
	}
}

func (w *aggWorkload) step() error {
	out, rep, err := w.fed.SecureAggregateReport(w.grads)
	w.out, w.rep = out, rep
	return err
}

// check holds the decrypted aggregate to the float64 sum over the round's
// included clients, scaled by population/included as the round scales it.
// Each included value carries at most Quantizer.MaxError of quantization
// error; the 1e-12·α term absorbs float64 rounding in dequantization.
func (w *aggWorkload) check() (float64, float64, error) {
	k := len(w.rep.Included)
	if k != w.scheduled {
		return 0, 0, fmt.Errorf("round included %d of %d scheduled clients", k, w.scheduled)
	}
	if len(w.out) != w.dim {
		return 0, 0, fmt.Errorf("aggregate has %d values, want %d", len(w.out), w.dim)
	}
	scale := float64(w.parties) / float64(k)
	oracle := make([]float64, w.dim)
	for _, name := range w.rep.Included {
		i, ok := w.index[name]
		if !ok {
			return 0, 0, fmt.Errorf("round included unknown client %q", name)
		}
		for j, g := range w.grads[i] {
			oracle[j] += g
		}
	}
	var worst float64
	for j, o := range oracle {
		worst = math.Max(worst, math.Abs(w.out[j]-scale*o))
	}
	q := w.ctx.Quant
	return worst, scale * float64(k) * (q.MaxError() + 1e-12*q.Alpha()), nil
}

// ---- vertical-sbt ------------------------------------------------------------

// sbtWorkload grows one SecureBoost tree per step and a plaintext-oracle
// tree (nil context, same data and partition) alongside it, untimed.
type sbtWorkload struct {
	ctx     *fl.Context
	model   *models.HeteroSBT
	oracle  *models.HeteroSBT
	ds      *datasets.Dataset
	parties int
	seed    uint64
	loss    float64
}

// sbtBiasTol bounds the per-step convergence bias (Eq. 15) between the
// encrypted ensemble and the plaintext oracle: the bound the models package
// holds the same comparison to. Leaf weights come from the guest's plaintext
// (g, h) sums, so the two ensembles differ only where 20-bit quantized
// histogram sums flip a near-tied split choice; once one has, later trees
// differ too (biases up to 0.015 occur on some seeds).
const sbtBiasTol = 0.1

func buildSBT(sz size, seed uint64) (workload, setupParts, error) {
	var parts setupParts
	start := time.Now()
	ds, err := datasets.Generate(datasets.SyntheticSpec.Scaled(sz.sbtScale), seed)
	if err != nil {
		return nil, parts, err
	}
	parts.data = time.Since(start)
	p := fl.NewProfile(fl.SystemFLBooster, sz.sbtKeyBits, sz.sbtParties)
	p.Seed = seed
	start = time.Now()
	ctx, err := fl.NewContext(p)
	if err != nil {
		return nil, parts, err
	}
	parts.keygen = time.Since(start)
	opts := models.DefaultOptions()
	opts.Seed = seed
	opts.Parties = sz.sbtParties
	model, err := models.NewHeteroSBT(ctx, ds, opts)
	if err != nil {
		return nil, parts, err
	}
	oracle, err := models.NewHeteroSBT(nil, ds, opts)
	if err != nil {
		return nil, parts, err
	}
	return &sbtWorkload{ctx: ctx, model: model, oracle: oracle, ds: ds, parties: sz.sbtParties, seed: seed}, parts, nil
}

func (w *sbtWorkload) context() *fl.Context    { return w.ctx }
func (w *sbtWorkload) values() int             { return 2 * w.ds.Len() } // one g and one h per sample
func (w *sbtWorkload) report() *fl.RoundReport { return nil }

// prepare has nothing to draw: every step boosts on the fixed dataset.
func (w *sbtWorkload) prepare(int) {}

func (w *sbtWorkload) step() error {
	loss, err := w.model.TrainEpoch()
	w.loss = loss
	return err
}

// check grows the oracle's tree for the same boosting round and returns the
// convergence bias of the encrypted ensemble against it.
func (w *sbtWorkload) check() (float64, float64, error) {
	oracleLoss, err := w.oracle.TrainEpoch()
	if err != nil {
		return 0, 0, err
	}
	if math.IsNaN(w.loss) || math.IsInf(w.loss, 0) {
		return 0, 0, fmt.Errorf("non-finite loss %v", w.loss)
	}
	return models.ConvergenceBias(oracleLoss, w.loss), sbtBiasTol, nil
}
