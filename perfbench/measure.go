package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/gpu"
)

// runResult is everything one run measured.
type runResult struct {
	attempted, failed int
	hostMs            []float64  // every step's host time, in order
	hostRefs          []float64  // the same in refs (reference.go)
	endToEnd          metricList // BENCHMARK.json end_to_end, --trace 0
	extra             metricList // oracle and failure metrics BENCHMARK.json cannot bound
	perLayer          metricList // BENCHMARK.json per_layer, --trace 1
	layerErr          string     // a failed layer replay or mpint probe (traced runs)
	// The oracle errors over the seed-determined steps: aggregation
	// workloads report agg_err_max, vertical-sbt loss_bias.
	aggErrMax, lossBias float64
}

// stepRecord is what the loop keeps about one step.
type stepRecord struct {
	host    time.Duration // wall time less the ref bursts inside it
	wall    time.Duration // as program-measured walls (HEWall, EncodeWall) see it
	ref     time.Duration // the median ref burst during the step
	traced  bool
	simNs   int64 // TotalSimOverlapped delta minus OtherWall delta
	costs   fl.CostSnapshot
	dev     gpu.Stats
	mallocs uint64
	pauseNs uint64
	errAbs  float64
	anatomy *fl.RoundAnatomy
	peakCts int64
	dropped int
}

// Cheap setups repeat until minSetupTime has passed (at most maxSetupReps
// times) so that setup_s is a median over enough samples to be steady.
const (
	minSetupTime = 2 * time.Second
	maxSetupReps = 100
	setupRepSeed = 1 << 40
)

// measure sets the workload up at least sz.setupReps times, then runs it as
// a closed loop for at least sz.minSteps steps and until the window closes.
func measure(build builder, sz size, seed uint64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{}
	var w workload
	ref := newReference()
	var setupS, setupRawS, dataS, keygenS []float64
	setupStart := time.Now()
	for r := 0; r < sz.setupReps || (r < maxSetupReps && time.Since(setupStart) < minSetupTime); r++ {
		// Rep 0 is the measured instance and uses the run's seed. The other
		// reps all use one fixed seed, the same in every run: key generation
		// time depends on where a seed's prime search ends, and repeating
		// the same search keeps that luck from moving the median.
		repSeed := seed
		if r > 0 {
			repSeed = setupRepSeed
		}
		runtime.GC()
		var wr workload
		var parts setupParts
		_, host, refT, err := ref.timeStep(func() (err error) {
			wr, parts, err = build(sz, repSeed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, refNominal.Seconds()*float64(host)/float64(refT))
		setupRawS = append(setupRawS, host.Seconds())
		dataS = append(dataS, parts.data.Seconds())
		keygenS = append(keygenS, parts.keygen.Seconds())
		if r == 0 {
			w = wr
		}
	}
	ctx := w.context()

	var steps []stepRecord
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < sz.minSteps || time.Now().Before(deadline); i++ {
		if i > 0 {
			w.prepare(i) // step 0's inputs are drawn during setup
		}
		rec := stepRecord{traced: traced && i%2 == 0}
		runtime.ReadMemStats(&ms0)
		cs0 := ctx.Costs.Snapshot()
		var dev0 gpu.Stats
		if rec.traced && ctx.Device != nil {
			dev0 = ctx.Device.Stats()
		}
		var err error
		rec.wall, rec.host, rec.ref, err = ref.timeStep(w.step)
		if rec.traced && ctx.Device != nil {
			rec.dev = devDelta(dev0, ctx.Device.Stats())
		}
		cs1 := ctx.Costs.Snapshot()
		runtime.ReadMemStats(&ms1)
		rec.costs = costDelta(cs0, cs1)
		rec.simNs = int64(cs1.TotalSimOverlapped()-cs0.TotalSimOverlapped()) - int64(cs1.OtherWall-cs0.OtherWall)
		rec.mallocs = ms1.Mallocs - ms0.Mallocs
		rec.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
		res.attempted++
		if err == nil {
			var bound float64
			rec.errAbs, bound, err = w.check()
			if err == nil && !(rec.errAbs <= bound) {
				err = fmt.Errorf("oracle error %g exceeds bound %g", rec.errAbs, bound)
			}
		}
		if rep := w.report(); rep != nil {
			rec.anatomy, rec.peakCts, rec.dropped = rep.Anatomy, rep.PeakLiveCts, len(rep.Dropped)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: step %d: %v\n", i, err)
		}
		steps = append(steps, rec)
	}

	det := steps[:sz.minSteps] // the seed-determined window
	values := float64(w.values())
	hostMs := make([]float64, len(steps))
	hostRefs := make([]float64, len(steps))
	refMs := make([]float64, len(steps))
	mallocs := make([]float64, len(steps))
	var hostTotal time.Duration
	var refsTotal float64
	for i, s := range steps {
		hostMs[i] = ms(s.host)
		hostRefs[i] = float64(s.host) / float64(s.ref)
		refMs[i] = ms(s.ref)
		mallocs[i] = float64(s.mallocs)
		hostTotal += s.host
		refsTotal += hostRefs[i]
	}
	res.hostMs, res.hostRefs = hostMs, hostRefs
	var simNs, commBytes int64
	var errMax float64
	for _, s := range det {
		simNs += s.simNs
		commBytes += s.costs.CommBytes
		errMax = math.Max(errMax, s.errAbs)
	}
	detN := float64(len(det))
	e := &res.endToEnd
	e.add("setup_s", "s", median(setupS))
	e.add("host_step_refs_p50", "refs", median(hostRefs))
	e.add("host_values_per_kref", "values/kref", 1000*values*float64(len(steps))/refsTotal)
	e.add("sim_step_ms", "ms", float64(simNs)/detN/1e6)
	e.add("wire_bytes_per_value", "bytes", float64(commBytes)/(detN*values))
	e.add("peak_rss_mb", "MiB", peakRSSMiB())
	e.add("allocs_per_step", "count", median(mallocs))

	x := &res.extra
	x.add("host_steps", "count", float64(len(steps)))
	x.add("setup_raw_s", "s", median(setupRawS))
	x.add("host_step_ms_p50", "ms", median(hostMs))
	x.add("host_values_per_s", "values/s", values*float64(len(steps))/hostTotal.Seconds())
	x.add("ref_ms_p50", "ms", median(refMs))
	if w.report() != nil {
		res.aggErrMax = errMax
		x.add("agg_err_max", "abs", errMax)
	} else {
		res.lossBias = det[len(det)-1].errAbs
		x.add("loss_bias", "ratio", res.lossBias)
	}
	x.add("failed_frac", "ratio", float64(res.failed)/float64(res.attempted))

	if traced {
		layerMetrics(res, w, sz, seed, steps, det, setupParts{
			data:   seconds2dur(median(dataS)),
			keygen: seconds2dur(median(keygenS)),
		}, &ms1)
	}
	return res, nil
}

func costDelta(a, b fl.CostSnapshot) fl.CostSnapshot {
	return fl.CostSnapshot{
		HEWall: b.HEWall - a.HEWall, HESim: b.HESim - a.HESim,
		HEOps: b.HEOps - a.HEOps, Instances: b.Instances - a.Instances,
		CommSim: b.CommSim - a.CommSim, CommBytes: b.CommBytes - a.CommBytes,
		CommMsgs: b.CommMsgs - a.CommMsgs, RetryMsgs: b.RetryMsgs - a.RetryMsgs,
		OtherWall: b.OtherWall - a.OtherWall, EncodeWall: b.EncodeWall - a.EncodeWall,
		Ciphertexts: b.Ciphertexts - a.Ciphertexts, Plainvals: b.Plainvals - a.Plainvals,
	}
}

func devDelta(a, b gpu.Stats) gpu.Stats {
	return gpu.Stats{
		KernelLaunches:  b.KernelLaunches - a.KernelLaunches,
		SimTransferTime: b.SimTransferTime - a.SimTransferTime,
		SimComputeTime:  b.SimComputeTime - a.SimComputeTime,
		WallKernelTime:  b.WallKernelTime - a.WallKernelTime,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// median of a non-empty sample (mean of the middle pair for even sizes).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
