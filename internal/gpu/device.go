package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"flbooster/internal/obs"
)

// Device is a simulated GPU. Kernel bodies run for real on a host goroutine
// pool (one worker per core by default) while a simulated clock integrates
// the paper's Eq. 10 cost model so experiments can report device-scale
// timings independent of the host.
type Device struct {
	cfg Config
	rm  *ResourceManager

	workers int
	sem     chan struct{} // bounds concurrently running blocks

	mu        sync.Mutex
	stats     Stats
	injector  *FaultInjector
	healthPol HealthPolicy
	launchSeq int64 // 1-based launch ordinal, attempted launches included

	rec      *obs.Recorder // nil when tracing is off: every record is one nil check
	recParty string        // trace process the device's spans belong to
	devID    string        // device label inside a DeviceSet ("dev0"…); empty standalone
}

// Stats aggregates device activity.
type Stats struct {
	KernelLaunches  int64
	ThreadsExecuted int64
	WarpsExecuted   int64
	BytesHostToDev  int64
	BytesDevToHost  int64
	SimTransferTime time.Duration // modelled PCIe time (Eq. 10 transfer term)
	SimComputeTime  time.Duration // modelled kernel time (Eq. 10 compute term)
	SimFaultTime    time.Duration // modelled time lost to faults: watchdog windows, retry backoff, degraded host execution
	// SimPrecomputeTime holds device work reclassified as offline
	// precomputation (nonce-pool refills run during idle sim-time). It is
	// excluded from SimTime(): the online clock only pays for work the
	// critical path actually waits on, while the precompute bill stays
	// visible here.
	SimPrecomputeTime time.Duration
	WallKernelTime    time.Duration // real host time spent in kernel bodies
	UtilizationSum    float64       // Σ occupancy per launch, for averaging
	UtilizationCount  int64

	// Stream-pipeline observability: ops executed as chunked streams
	// (Pipeline) report their measured critical path in SimStreamTime and
	// the sequential cost of the same chunks in SimStreamSeqTime, so the
	// overlap gain is (SimStreamSeqTime - SimStreamTime) of real schedule,
	// not a closed-form estimate.
	SimStreamTime    time.Duration
	SimStreamSeqTime time.Duration
	StreamChunks     int64
	StreamOps        int64

	// Fault/health observability (DESIGN.md §7). Per-kind counters record
	// *observed* failures: silent corruptions appear only once detected and
	// reported back via ReportFailure.
	LaunchFailures      int64
	WatchdogTrips       int64
	FaultAborts         int64
	FaultCorruptions    int64
	FaultStalls         int64
	FaultOOMs           int64
	Health              HealthState
	ConsecutiveFailures int
}

// SimTime is the total modelled device time with sequential stages:
// transfer in, compute, transfer out (the three stages of §V-B), plus any
// time lost to faults — degraded runs report their true cost.
func (s Stats) SimTime() time.Duration {
	return s.SimTransferTime + s.SimComputeTime + s.SimFaultTime
}

// SimTimeOverlapped is the modelled device time with stream overlap: ops
// executed as chunked pipelines contribute their measured critical path
// (SimStreamTime) in place of their sequential stage sum, while everything
// that ran whole-batch keeps its sequential cost. It never exceeds
// SimTime(), and equals it when nothing was streamed.
func (s Stats) SimTimeOverlapped() time.Duration {
	return s.SimTime() - s.SimStreamSeqTime + s.SimStreamTime
}

// AvgUtilization is the mean SM utilization across launches, in [0,1].
func (s Stats) AvgUtilization() float64 {
	if s.UtilizationCount == 0 {
		return 0
	}
	return s.UtilizationSum / float64(s.UtilizationCount)
}

// New creates a device from cfg with a resource manager using the
// fine-grained policy when fineRM is true (FLBooster) or the coarse policy
// otherwise (HAFLO-style).
func New(cfg Config, fineRM bool) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := cfg.HostWorkers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	d := &Device{
		cfg:       cfg,
		rm:        NewResourceManager(cfg, fineRM),
		workers:   w,
		sem:       make(chan struct{}, w),
		healthPol: DefaultHealthPolicy(),
	}
	d.stats.Health = DeviceHealthy
	return d, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config, fineRM bool) *Device {
	d, err := New(cfg, fineRM)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// RM returns the device's resource manager.
func (d *Device) RM() *ResourceManager { return d.rm }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the device counters (between experiment phases). Health
// state survives the reset — a failed device does not heal by bookkeeping.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	health, consec := d.stats.Health, d.stats.ConsecutiveFailures
	d.stats = Stats{Health: health, ConsecutiveFailures: consec}
}

// SetRecorder attaches (or, with nil, detaches) a span recorder. Every
// kernel launch, PCIe copy, and fault-time charge then lands as a sim-time
// span under the given trace party.
func (d *Device) SetRecorder(rec *obs.Recorder, party string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = rec
	d.recParty = party
}

// SetDeviceLabel names the device inside a multi-device set; the label tags
// every kernel/copy/fault span the device emits.
func (d *Device) SetDeviceLabel(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.devID = id
}

// DeviceLabel returns the device's set label, empty for a standalone device.
func (d *Device) DeviceLabel() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.devID
}

// obsRecorder returns the attached recorder and party label.
func (d *Device) obsRecorder() (*obs.Recorder, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rec, d.recParty
}

// recordLocked emits one span on the device's sim timeline. Callers hold
// d.mu; zero-duration spans are skipped to keep traces readable.
func (d *Device) recordLocked(phase, lane string, start, dur time.Duration) {
	if d.rec == nil || dur <= 0 {
		return
	}
	d.rec.Record(obs.Span{Phase: phase, Party: d.recParty, Lane: lane, Device: d.devID, Start: start, Dur: dur})
}

// PublishMetrics snapshots the device counters into a metrics registry
// under the given prefix — launches, bytes, fault/watchdog events, stream
// clocks, the DESIGN.md §9 pull-publishing contract.
func (d *Device) PublishMetrics(reg *obs.Registry, prefix string) {
	publishDeviceStats(reg, prefix, d.Stats())
}

// publishDeviceStats writes one Stats snapshot under a prefix — shared by
// standalone devices, DeviceSet members, and the set's aggregate row.
func publishDeviceStats(reg *obs.Registry, prefix string, s Stats) {
	reg.Set(prefix+".launches", s.KernelLaunches)
	reg.Set(prefix+".threads", s.ThreadsExecuted)
	reg.Set(prefix+".warps", s.WarpsExecuted)
	reg.Set(prefix+".bytes_h2d", s.BytesHostToDev)
	reg.Set(prefix+".bytes_d2h", s.BytesDevToHost)
	reg.Set(prefix+".sim_transfer_ns", int64(s.SimTransferTime))
	reg.Set(prefix+".sim_compute_ns", int64(s.SimComputeTime))
	reg.Set(prefix+".sim_fault_ns", int64(s.SimFaultTime))
	reg.Set(prefix+".sim_precompute_ns", int64(s.SimPrecomputeTime))
	reg.Set(prefix+".stream_chunks", s.StreamChunks)
	reg.Set(prefix+".stream_ops", s.StreamOps)
	reg.Set(prefix+".sim_stream_ns", int64(s.SimStreamTime))
	reg.Set(prefix+".sim_stream_seq_ns", int64(s.SimStreamSeqTime))
	reg.Set(prefix+".launch_failures", s.LaunchFailures)
	reg.Set(prefix+".watchdog_trips", s.WatchdogTrips)
	reg.Set(prefix+".fault_aborts", s.FaultAborts)
	reg.Set(prefix+".fault_corruptions", s.FaultCorruptions)
	reg.Set(prefix+".fault_stalls", s.FaultStalls)
	reg.Set(prefix+".fault_ooms", s.FaultOOMs)
	reg.SetGauge(prefix+".avg_utilization", s.AvgUtilization())
	reg.SetGauge(prefix+".health", healthRank(s.Health))
}

// healthRank maps the health machine to a numeric gauge: 0 healthy,
// 1 degraded, 2 failed.
func healthRank(h HealthState) float64 {
	switch h {
	case DeviceDegraded:
		return 1
	case DeviceFailed:
		return 2
	default:
		return 0
	}
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector.
func (d *Device) SetFaultInjector(fi *FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = fi
}

// Injector returns the attached fault injector, nil when none.
func (d *Device) Injector() *FaultInjector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injector
}

// SetHealthPolicy replaces the consecutive-failure thresholds.
func (d *Device) SetHealthPolicy(p HealthPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.healthPol = p.withDefaults()
}

// Health returns the device health state.
func (d *Device) Health() HealthState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Health
}

// ReportFailure feeds an externally detected launch failure — typically a
// result-verification miss on a kernel that reported success — into the
// health machine and the per-kind counters.
func (d *Device) ReportFailure(kernel string, kind FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordFailureLocked(kind)
}

// ReclassifyPrecompute moves every modelled cost the device accrued since
// `mark` (a Stats snapshot taken before the work) out of the online clock
// and into SimPrecomputeTime, returning the overlapped duration moved. This
// is how offline work — nonce-pool refills driven through the ordinary
// kernel/copy/pipeline paths — is billed to idle sim-time instead of the
// round's critical path: the work still happened (bytes, launches, and spans
// remain), but its clock contribution is reclassified. The caller must
// bracket the work single-threadedly; concurrent online work between mark
// and the call would be reclassified with it.
func (d *Device) ReclassifyPrecompute(mark Stats) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	dT := d.stats.SimTransferTime - mark.SimTransferTime
	dC := d.stats.SimComputeTime - mark.SimComputeTime
	dF := d.stats.SimFaultTime - mark.SimFaultTime
	dSS := d.stats.SimStreamSeqTime - mark.SimStreamSeqTime
	dS := d.stats.SimStreamTime - mark.SimStreamTime
	// The overlapped view of the bracketed work: sequential stages, minus the
	// chunks that were streamed, plus their measured critical path.
	moved := dT + dC + dF - dSS + dS
	if moved < 0 {
		moved = 0
	}
	d.stats.SimTransferTime = mark.SimTransferTime
	d.stats.SimComputeTime = mark.SimComputeTime
	d.stats.SimFaultTime = mark.SimFaultTime
	d.stats.SimStreamSeqTime = mark.SimStreamSeqTime
	d.stats.SimStreamTime = mark.SimStreamTime
	d.stats.SimPrecomputeTime += moved
	return moved
}

// ChargeFaultTime adds externally incurred fault cost — retry backoff and
// degraded-mode host execution — to the modelled clock (Eq. 10 terms stay
// untouched; the loss is reported separately as SimFaultTime).
func (d *Device) ChargeFaultTime(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordLocked("fault", "gpu.fault", d.stats.SimTime(), dur)
	d.stats.SimFaultTime += dur
}

// recordFailureLocked counts one failed launch and advances the health
// machine. Callers hold d.mu.
func (d *Device) recordFailureLocked(kind FaultKind) {
	d.stats.LaunchFailures++
	switch kind {
	case FaultAbort:
		d.stats.FaultAborts++
	case FaultCorrupt:
		d.stats.FaultCorruptions++
	case FaultStall:
		d.stats.FaultStalls++
	case FaultOOM:
		d.stats.FaultOOMs++
	}
	if d.stats.Health == DeviceFailed {
		return
	}
	d.stats.ConsecutiveFailures++
	switch {
	case d.stats.ConsecutiveFailures >= d.healthPol.FailAfter:
		d.stats.Health = DeviceFailed
	case d.stats.ConsecutiveFailures >= d.healthPol.DegradeAfter:
		d.stats.Health = DeviceDegraded
	}
}

// recordSuccessLocked resets the failure streak; a Degraded device
// recovers, a Failed one never does. Callers hold d.mu.
func (d *Device) recordSuccessLocked() {
	d.stats.ConsecutiveFailures = 0
	if d.stats.Health == DeviceDegraded {
		d.stats.Health = DeviceHealthy
	}
}

// CopyToDevice accounts a host→device transfer of n bytes.
func (d *Device) CopyToDevice(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dur := d.transferTime(n)
	d.recordLocked("h2d_copy", "gpu.h2d", d.stats.SimTime(), dur)
	d.stats.BytesHostToDev += n
	d.stats.SimTransferTime += dur
}

// CopyFromDevice accounts a device→host transfer of n bytes.
func (d *Device) CopyFromDevice(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dur := d.transferTime(n)
	d.recordLocked("d2h_copy", "gpu.d2h", d.stats.SimTime(), dur)
	d.stats.BytesDevToHost += n
	d.stats.SimTransferTime += dur
}

func (d *Device) transferTime(n int64) time.Duration {
	sec := d.cfg.TransferLatencySec + float64(n)/d.cfg.TransferBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// Kernel describes one launch.
type Kernel struct {
	// Name labels the launch in diagnostics.
	Name string
	// Items is the number of independent work items (e.g. ciphertexts).
	Items int
	// RegsPerThread is the kernel's register demand, which drives occupancy.
	RegsPerThread int
	// SharedPerBlock is per-block shared memory in bytes.
	SharedPerBlock int
	// WordOps is the modelled 32-bit multiply-add count *per item*, used by
	// the simulated clock. Callers compute it from the arithmetic they run
	// (e.g. CIOS cost k²+k per Montgomery multiplication).
	WordOps int64
	// DivergentLanes reports how many lanes of a warp take a divergent
	// branch; the resource manager converts this into a cost factor.
	DivergentLanes int
	// Poison, when set, is how an attached FaultInjector corrupts one item's
	// result after the kernel body runs (the transient bit-flip model). The
	// launch still reports success — only downstream verification can catch
	// it. A corrupt fault on a kernel without Poison fails visibly instead.
	Poison func(item int)
}

// Launch executes fn(i) for every item i of the kernel, distributing items
// across the host worker pool, and charges the simulated clock with the
// Eq. 10 compute term. It is the data-parallel path used for "one thread
// block per ciphertext" kernels. It returns the launch's modelled occupancy.
//
// Failure surface: a Failed device refuses the launch outright; an attached
// FaultInjector may abort, stall, corrupt, or OOM the launch; and when
// Config.KernelDeadline is set, a watchdog cancels stragglers. All of these
// return a typed *KernelError and drive the health machine.
func (d *Device) Launch(k Kernel, fn func(item int)) (float64, error) {
	if k.Items < 0 {
		return 0, fmt.Errorf("gpu: kernel %q has negative item count", k.Name)
	}
	if k.RegsPerThread > d.cfg.MaxRegistersPerThread {
		return 0, fmt.Errorf("gpu: kernel %q wants %d regs/thread, device caps at %d",
			k.Name, k.RegsPerThread, d.cfg.MaxRegistersPerThread)
	}
	if k.Items == 0 {
		return 0, nil
	}

	d.mu.Lock()
	if d.stats.Health == DeviceFailed {
		attempt := d.launchSeq + 1
		d.mu.Unlock()
		return 0, &KernelError{Kind: FaultDeviceFailed, Kernel: k.Name, Attempt: attempt}
	}
	d.launchSeq++
	attempt := d.launchSeq
	injector := d.injector
	d.mu.Unlock()

	fault, poisonItem := FaultKind(""), -1
	if injector != nil {
		fault, poisonItem = injector.decide(k.Items)
	}

	switch fault {
	case FaultAbort:
		d.failLaunch(FaultAbort)
		return 0, &KernelError{Kind: FaultAbort, Kernel: k.Name, Attempt: attempt}
	case FaultOOM:
		// The failure surfaces from the real memory table: the fault inflates
		// the launch's scratch demand past the free bytes, and the allocator
		// rejects it without touching the table's accounting.
		want := d.rm.FreeBytes() + 1 + int64(k.Items)*4
		if buf, err := d.rm.Alloc(want); err != nil {
			d.failLaunch(FaultOOM)
			return 0, &KernelError{Kind: FaultOOM, Kernel: k.Name, Attempt: attempt}
		} else {
			_ = buf.Free()
		}
	case FaultCorrupt:
		if k.Poison == nil {
			// Nothing to poison — the corruption is visible as a hard fault.
			d.failLaunch(FaultCorrupt)
			return 0, &KernelError{Kind: FaultCorrupt, Kernel: k.Name, Attempt: attempt}
		}
	}

	blockSize := d.rm.PickBlockSize(k.Items, k.RegsPerThread, k.SharedPerBlock)
	occ := d.rm.Occupancy(blockSize, k.RegsPerThread, k.SharedPerBlock)
	execFactor, regFactor := d.rm.BranchCost(k.DivergentLanes)
	if regFactor > 1 {
		// Splitting the warp doubles register pressure, reducing occupancy.
		occ = d.rm.Occupancy(blockSize, int(float64(k.RegsPerThread)*regFactor), k.SharedPerBlock)
	}

	start := time.Now()
	deadline := d.cfg.KernelDeadline
	if fault == FaultStall || deadline > 0 {
		done := make(chan struct{})
		cancel := make(chan struct{})
		go func() {
			if fault == FaultStall {
				injector.stall(cancel)
			}
			d.runParallel(k.Items, fn, cancel)
			close(done)
		}()
		if deadline <= 0 {
			// Stall injected but no watchdog armed: the launch is merely slow.
			<-done
		} else {
			timer := time.NewTimer(deadline)
			select {
			case <-done:
				timer.Stop()
			case <-timer.C:
				close(cancel)
				d.mu.Lock()
				d.stats.WatchdogTrips++
				// The watchdog window is real device time lost to the hang.
				d.recordLocked(k.Name+".watchdog", "gpu.fault", d.stats.SimTime(), deadline)
				d.stats.SimFaultTime += deadline
				d.recordFailureLocked(FaultStall)
				d.mu.Unlock()
				return 0, &KernelError{Kind: FaultStall, Kernel: k.Name, Attempt: attempt}
			}
		}
	} else {
		d.runParallel(k.Items, fn, nil)
	}
	wall := time.Since(start)

	if fault == FaultCorrupt {
		// Silent from the device's point of view: the launch succeeds and the
		// health machine sees no failure until verification reports one.
		k.Poison(poisonItem)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordSuccessLocked()
	d.stats.KernelLaunches++
	d.stats.ThreadsExecuted += int64(k.Items)
	d.stats.WarpsExecuted += int64((k.Items + d.cfg.WarpSize - 1) / d.cfg.WarpSize)
	d.stats.WallKernelTime += wall
	d.stats.UtilizationSum += occ
	d.stats.UtilizationCount++
	// Eq. 10 compute term: total word-ops divided by the device's effective
	// throughput at this occupancy, times the divergence penalty.
	if k.WordOps > 0 && occ > 0 {
		throughput := d.cfg.WordOpsPerSec * float64(d.cfg.SMs) * occ
		sec := float64(k.WordOps) * float64(k.Items) / throughput * execFactor
		dur := time.Duration(sec * float64(time.Second))
		d.recordLocked(k.Name, "gpu.kernel", d.stats.SimTime(), dur)
		d.stats.SimComputeTime += dur
	}
	return occ, nil
}

// failLaunch records one failed launch under the device mutex.
func (d *Device) failLaunch(kind FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordFailureLocked(kind)
}

// runParallel spreads items across the worker pool in contiguous chunks.
// A closed cancel channel (the launch watchdog tripping) stops every worker
// at its next item boundary, so a cancelled launch does not keep burning
// host CPU behind the caller's retry.
func (d *Device) runParallel(items int, fn func(int), cancel <-chan struct{}) {
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if cancel != nil {
				select {
				case <-cancel:
					return
				default:
				}
			}
			fn(i)
		}
	}
	workers := d.workers
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		run(0, items)
		return
	}
	// The caller works the first chunk itself, so a launch spawns one
	// goroutine fewer than it has workers.
	var wg sync.WaitGroup
	chunk := (items + workers - 1) / workers
	for lo := chunk; lo < items; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, min(lo+chunk, items))
	}
	run(0, chunk)
	wg.Wait()
}

// ThreadCtx is the per-thread view inside a cooperative launch: the thread
// and block index, the block's shared memory, and a barrier for intra-block
// synchronization (the "inter-thread communication" of the paper's
// Algorithm 2).
type ThreadCtx struct {
	Block   int
	Thread  int
	Threads int
	Shared  []uint32
	bar     *barrier
}

// SyncThreads blocks until every thread in the block reaches the barrier.
func (t *ThreadCtx) SyncThreads() { t.bar.await() }

// LaunchCooperative runs a kernel whose threads within a block cooperate
// through shared memory and barriers — the execution model of the paper's
// limb-parallel Montgomery multiplication (Algorithm 2). blocks × threads
// goroutines are spawned, block-by-block through the worker semaphore.
// sharedWords is the size of each block's shared memory in 32-bit words.
func (d *Device) LaunchCooperative(name string, blocks, threads, sharedWords int, fn func(*ThreadCtx)) error {
	if threads <= 0 || blocks < 0 {
		return fmt.Errorf("gpu: cooperative kernel %q has invalid geometry %dx%d", name, blocks, threads)
	}
	if threads > d.cfg.MaxThreadsPerSM {
		return fmt.Errorf("gpu: cooperative kernel %q block of %d exceeds SM capacity %d",
			name, threads, d.cfg.MaxThreadsPerSM)
	}
	d.mu.Lock()
	if d.stats.Health == DeviceFailed {
		attempt := d.launchSeq + 1
		d.mu.Unlock()
		return &KernelError{Kind: FaultDeviceFailed, Kernel: name, Attempt: attempt}
	}
	d.launchSeq++
	d.mu.Unlock()
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		d.sem <- struct{}{}
		wg.Add(1)
		go func(b int) {
			defer func() { <-d.sem; wg.Done() }()
			shared := make([]uint32, sharedWords)
			bar := newBarrier(threads)
			var tw sync.WaitGroup
			for t := 0; t < threads; t++ {
				tw.Add(1)
				go func(t int) {
					defer tw.Done()
					fn(&ThreadCtx{Block: b, Thread: t, Threads: threads, Shared: shared, bar: bar})
				}(t)
			}
			tw.Wait()
		}(b)
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.KernelLaunches++
	d.stats.ThreadsExecuted += int64(blocks * threads)
	d.stats.WarpsExecuted += int64(blocks * ((threads + d.cfg.WarpSize - 1) / d.cfg.WarpSize))
	return nil
}

// barrier is a reusable counting barrier for one block's threads.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	phase   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
