package gpu

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/obs"
)

// Multi-device sharding (DESIGN.md §15): a DeviceSet is D simulated devices
// — each with its own clock, fault injector, health machine, and stream
// pair — behind a shard scheduler. Vector HE ops split into contiguous
// shards, dispatch across the devices, and merge their per-device sim
// clocks into one measured parallel span: the max over devices per wave,
// never the sum, so a device idling while its peers finish is not charged.
// When the fault layer degrades or kills a device mid-batch, its unfinished
// shards are re-queued onto the healthy devices (work stealing), subdivided
// so the rework is itself parallel, and the migration is charged to the
// cost model.

// MaxDevices bounds the device count a set accepts — a sanity rail for the
// CLI flags, not a simulator limit.
const MaxDevices = 64

// Shard is one contiguous item range [Lo, Hi) of a sharded vector op.
type Shard struct {
	Lo, Hi int
}

// Len returns the shard's item count.
func (s Shard) Len() int { return s.Hi - s.Lo }

// SplitShards splits n items into at most `parts` contiguous, near-equal,
// non-empty shards covering [0, n) exactly. Fewer than `parts` shards come
// back when n < parts (never a zero-length shard); n ≤ 0 or parts ≤ 0 yields
// nil.
func SplitShards(n, parts int) []Shard {
	return appendShards(nil, n, parts)
}

// appendShards appends SplitShards(n, parts) to dst.
func appendShards(dst []Shard, n, parts int) []Shard {
	if n <= 0 || parts <= 0 {
		return dst
	}
	if parts > n {
		parts = n
	}
	lo := 0
	for i := 0; i < parts; i++ {
		size := n / parts
		if i < n%parts {
			size++
		}
		dst = append(dst, Shard{Lo: lo, Hi: lo + size})
		lo += size
	}
	return dst
}

// SetStats aggregates the scheduler's activity. Per-device kernel/copy/fault
// counters live on the member devices (DeviceSet.Device(i).Stats()); this
// records what the set adds on top: shard traffic, steals, and the merged
// clocks.
type SetStats struct {
	// Ops counts sharded vector ops run through the set.
	Ops int64
	// Shards counts shards dispatched to devices, rework included.
	Shards int64
	// Steals counts shards re-queued from a faulted device onto healthy ones.
	Steals int64
	// HostOps counts ops that reached the host fallback after every device
	// was excluded, once per op however many ranges the host served;
	// HostShards counts those ranges.
	HostOps    int64
	HostShards int64
	// RebalanceSim is the modelled time the rework waves added to the
	// parallel span — the price of migration, included in SimParallelTime.
	RebalanceSim time.Duration
	// SimParallelTime is the measured parallel span: per wave, the maximum
	// modelled-time delta across the participating devices (overlapped view,
	// so device pipelines keep their stream credit).
	SimParallelTime time.Duration
	// SimSequentialTime is the same work priced sequentially — the sum of
	// every device's delta. SimParallelTime / SimSequentialTime is the
	// measured scaling efficiency.
	SimSequentialTime time.Duration
	// HostSim is the wall time of host-fallback shards, charged to the
	// set's clock (degraded-mode cost, like CheckedEngine fallback).
	HostSim time.Duration
	// SimPrecomputeTime holds set work reclassified as offline precompute
	// (nonce-pool refills) by BeginOffline.
	SimPrecomputeTime time.Duration
}

// DeviceSet is a fleet of simulated devices behind a shard scheduler.
type DeviceSet struct {
	devs []*Device

	mu    sync.Mutex
	stats SetStats

	// Peer-to-peer topology: when a rate is configured, a stolen shard's
	// input migrates over the modelled device interconnect (charged to the
	// stealing device); with the zero value migration repays only the H2D
	// re-upload its rerun performs.
	p2pLatencySec  float64
	p2pBytesPerSec float64

	// Run's scratch, reused across ops under mu so a vector op allocates
	// nothing in the scheduler: one slot per member device, the eligible
	// device list, the ranges awaiting a device, a range's split, and the
	// join of the wave participants that run on their own goroutines.
	slots   []devSlot
	elig    []int
	pending []Shard
	pieces  []Shard
	wave    sync.WaitGroup
}

// devSlot is one member's share of the op Run is executing.
type devSlot struct {
	queue     []Shard       // shards for the current wave, in order
	base      time.Duration // the device clock at the wave start
	migration time.Duration // P2P charge for the stolen input it received
	failedAt  int           // index of its first typed failure, -1 if none
	fatal     error         // a non-device error, which aborts the op
	excluded  bool          // it failed a shard earlier in this op
}

// NewDeviceSet builds n devices from one configuration. Each device gets its
// own resource manager, clock, and health machine, plus a stable device
// label ("dev0"…) that tags its trace spans. Fault injectors are attached
// per device by the caller — each device fails independently.
func NewDeviceSet(cfg Config, fineRM bool, n int) (*DeviceSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("gpu: device set needs at least 1 device, got %d", n)
	}
	if n > MaxDevices {
		return nil, fmt.Errorf("gpu: device set of %d exceeds MaxDevices %d", n, MaxDevices)
	}
	devs := make([]*Device, n)
	for i := range devs {
		d, err := New(cfg, fineRM)
		if err != nil {
			return nil, err
		}
		d.SetDeviceLabel(fmt.Sprintf("dev%d", i))
		devs[i] = d
	}
	return &DeviceSet{devs: devs, slots: make([]devSlot, n)}, nil
}

// Size returns the device count.
func (s *DeviceSet) Size() int { return len(s.devs) }

// Device returns member i.
func (s *DeviceSet) Device(i int) *Device { return s.devs[i] }

// Devices returns the member devices (shared slice; do not mutate).
func (s *DeviceSet) Devices() []*Device { return s.devs }

// SetP2P configures the peer-to-peer interconnect used to price shard
// migration (NVLink-style: per-transfer latency plus bytes/sec). Zero rates
// disable the charge.
func (s *DeviceSet) SetP2P(latencySec, bytesPerSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p2pLatencySec = latencySec
	s.p2pBytesPerSec = bytesPerSec
}

// P2PTransferTime models moving n bytes between two member devices.
func (s *DeviceSet) P2PTransferTime(n int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p2pTimeLocked(n)
}

func (s *DeviceSet) p2pTimeLocked(n int64) time.Duration {
	if s.p2pBytesPerSec <= 0 {
		return 0
	}
	sec := s.p2pLatencySec + float64(n)/s.p2pBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// Stats returns a snapshot of the set counters.
func (s *DeviceSet) Stats() SetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SimTime is the set's modelled online clock: the merged parallel span plus
// any host-fallback time. It is the multi-device analogue of
// Device.Stats().SimTime() and what fl's cost accounting reads.
func (s *DeviceSet) SimTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.SimParallelTime + s.stats.HostSim
}

// SimNow implements the ghe.SimClock shape without the import: the current
// reading of the set's online clock.
func (s *DeviceSet) SimNow() time.Duration { return s.SimTime() }

// ResetStats zeroes the set counters and every member device's counters.
// Health states survive, exactly as on a single device.
func (s *DeviceSet) ResetStats() {
	for _, d := range s.devs {
		d.ResetStats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = SetStats{}
}

// SetRecorder attaches a span recorder to every member device under one
// trace party; spans stay distinguishable by their device label.
func (s *DeviceSet) SetRecorder(rec *obs.Recorder, party string) {
	for _, d := range s.devs {
		d.SetRecorder(rec, party)
	}
}

// SetHealthPolicy replaces the failure thresholds on every member device.
func (s *DeviceSet) SetHealthPolicy(p HealthPolicy) {
	for _, d := range s.devs {
		d.SetHealthPolicy(p)
	}
}

// AvgUtilization is the mean SM utilization across the member devices that
// launched anything.
func (s *DeviceSet) AvgUtilization() float64 {
	sum, n := 0.0, 0
	for _, d := range s.devs {
		st := d.Stats()
		if st.UtilizationCount > 0 {
			sum += st.AvgUtilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BeginOffline marks the set's clocks ahead of offline work (nonce-pool
// prefill). The returned func reclassifies everything accrued since — on
// every member device and on the set's merged clocks — into precompute
// time, returning the parallel-view duration moved. The caller must bracket
// the work single-threadedly, like Device.ReclassifyPrecompute.
func (s *DeviceSet) BeginOffline() func() time.Duration {
	marks := make([]Stats, len(s.devs))
	for i, d := range s.devs {
		marks[i] = d.Stats()
	}
	s.mu.Lock()
	mark := s.stats
	s.mu.Unlock()
	return func() time.Duration {
		for i, d := range s.devs {
			d.ReclassifyPrecompute(marks[i])
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		moved := (s.stats.SimParallelTime - mark.SimParallelTime) + (s.stats.HostSim - mark.HostSim)
		if moved < 0 {
			moved = 0
		}
		s.stats.SimParallelTime = mark.SimParallelTime
		s.stats.SimSequentialTime = mark.SimSequentialTime
		s.stats.HostSim = mark.HostSim
		s.stats.RebalanceSim = mark.RebalanceSim
		s.stats.SimPrecomputeTime += moved
		return moved
	}
}

// ShardOp is one sharded vector operation.
type ShardOp struct {
	// Name labels the op in errors and diagnostics.
	Name string
	// Items is the total item count to cover.
	Items int
	// BytesPerItem sizes a shard's input for migration pricing over the
	// peer-to-peer topology; zero skips the charge.
	BytesPerItem int64
	// Run executes one shard on member device devID, writing results for
	// exactly [sh.Lo, sh.Hi). It must be safe to call concurrently for
	// disjoint shards on distinct devices. A typed *KernelError re-queues
	// the shard; any other error aborts the op.
	Run func(devID int, sh Shard) error
	// Host executes one shard on the host — the last-resort fallback once
	// every device is excluded. Nil surfaces the final device error instead.
	Host func(sh Shard) error
}

// Run executes op across the set: split into one shard per eligible device,
// run the wave in parallel (each device walks its shards in order, the
// first participant on the calling goroutine and the rest on their own),
// then re-queue anything a faulted device left behind onto the remaining
// devices — subdivided, so stolen work is itself parallel — until the op
// completes, falling back to the host when no device remains.
//
// Accounting merges the per-device clocks into a measured parallel span:
// each wave contributes the maximum modelled-time delta across its
// participants (overlapped view, so per-device stream pipelines keep their
// credit) to SimParallelTime and the sum of deltas to SimSequentialTime.
// Rework waves additionally accrue RebalanceSim; migrated shards pay the
// peer-to-peer transfer of their input when a P2P rate is configured.
//
// Bit-exactness: shards are contiguous item ranges and Run writes only its
// own range, so any schedule — including mid-batch death and rework — yields
// the byte-identical result of the sequential op. Ops serialize on the set;
// one op at a time owns every member clock and the scheduler's scratch.
func (s *DeviceSet) Run(op ShardOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Ops++
	if op.Items <= 0 {
		return nil
	}
	for i := range s.slots {
		s.slots[i].excluded = false
	}
	s.pending = append(s.pending[:0], Shard{Lo: 0, Hi: op.Items})
	var lastErr error

	for wave := 0; ; wave++ {
		elig := s.eligibleLocked()
		if len(elig) == 0 {
			return s.runHostLocked(op, s.pending, lastErr)
		}
		// Distribute the pending ranges: each splits across every eligible
		// device, so wave 0 is the even initial split and rework waves spread
		// a dead device's remainder instead of serializing it on one peer.
		for _, rng := range s.pending {
			s.pieces = appendShards(s.pieces[:0], rng.Len(), len(elig))
			for j, p := range s.pieces {
				dev := elig[j]
				sh := Shard{Lo: rng.Lo + p.Lo, Hi: rng.Lo + p.Hi}
				s.slots[dev].queue = append(s.slots[dev].queue, sh)
				s.stats.Shards++
				if wave > 0 {
					s.stats.Steals++
					// The faulted device's staged input migrates to the stealer
					// over the interconnect; charged inside the wave below so
					// the merged span includes it.
					s.slots[dev].migration += s.p2pTimeLocked(int64(sh.Len()) * op.BytesPerItem)
				}
			}
		}
		s.pending = s.pending[:0]

		// One wave: every assigned device runs its shards in order;
		// per-device clocks advance independently.
		first := -1
		for _, dev := range elig {
			slot := &s.slots[dev]
			if len(slot.queue) == 0 {
				continue
			}
			slot.base = s.devs[dev].Stats().SimTimeOverlapped()
			s.devs[dev].ChargeFaultTime(slot.migration)
			slot.migration = 0
			if first < 0 {
				first = dev
			}
		}
		for _, dev := range elig {
			if dev != first && len(s.slots[dev].queue) > 0 {
				s.wave.Add(1)
				go func(dev int) {
					defer s.wave.Done()
					s.runQueue(op, dev)
				}(dev)
			}
		}
		s.runQueue(op, first)
		s.wave.Wait()

		// Merge the wave's clocks: parallel span is the slowest device's
		// delta, never the sum — an idle device charges nothing.
		var span, seq time.Duration
		for _, dev := range elig {
			if len(s.slots[dev].queue) == 0 {
				continue
			}
			delta := s.devs[dev].Stats().SimTimeOverlapped() - s.slots[dev].base
			if delta < 0 {
				delta = 0
			}
			seq += delta
			if delta > span {
				span = delta
			}
		}
		s.stats.SimParallelTime += span
		s.stats.SimSequentialTime += seq
		if wave > 0 {
			s.stats.RebalanceSim += span
		}

		var fatal error
		for _, dev := range elig {
			slot := &s.slots[dev]
			queued := slot.queue
			slot.queue = queued[:0]
			if fatal != nil || len(queued) == 0 {
				continue
			}
			if slot.fatal != nil {
				fatal = fmt.Errorf("gpu: sharded %s on dev%d: %w", op.Name, dev, slot.fatal)
				continue
			}
			if k := slot.failedAt; k >= 0 {
				// This device failed a shard during this op: exclude it from
				// the rework so a flaky-but-alive device cannot reabsorb work
				// it keeps failing.
				slot.excluded = true
				s.pending = append(s.pending, queued[k:]...)
				if lastErr == nil {
					lastErr = fmt.Errorf("gpu: sharded %s: dev%d faulted", op.Name, dev)
				}
			}
		}
		if fatal != nil {
			return fatal
		}
		if len(s.pending) == 0 {
			return nil
		}
	}
}

// eligibleLocked lists the devices that may take shards: not Failed and not
// excluded by an earlier failure in the current op. Callers hold s.mu.
func (s *DeviceSet) eligibleLocked() []int {
	s.elig = s.elig[:0]
	for i, d := range s.devs {
		if !s.slots[i].excluded && d.Health() != DeviceFailed {
			s.elig = append(s.elig, i)
		}
	}
	return s.elig
}

// runQueue walks device dev's queued shards in order, stopping at the first
// error: a typed *KernelError records where the rework starts, anything
// else is fatal to the op. Distinct devices write distinct slots, so wave
// participants run it concurrently.
func (s *DeviceSet) runQueue(op ShardOp, dev int) {
	slot := &s.slots[dev]
	slot.failedAt, slot.fatal = -1, nil
	for k, sh := range slot.queue {
		if err := op.Run(dev, sh); err != nil {
			if IsKernelError(err) {
				slot.failedAt = k
			} else {
				slot.fatal = err
			}
			return
		}
	}
}

// runHostLocked serves the remaining ranges on the host after every device
// was excluded, charging the wall time as degraded-mode cost. Callers hold
// s.mu.
func (s *DeviceSet) runHostLocked(op ShardOp, pending []Shard, lastErr error) error {
	if op.Host == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("gpu: sharded %s: no eligible device", op.Name)
		}
		return lastErr
	}
	s.stats.HostOps++
	start := time.Now()
	for _, sh := range pending {
		if err := op.Host(sh); err != nil {
			return fmt.Errorf("gpu: sharded %s host fallback: %w", op.Name, err)
		}
		s.stats.HostShards++
	}
	s.stats.HostSim += time.Since(start)
	return nil
}

// PublishMetrics snapshots the set into a metrics registry: aggregate device
// counters under prefix (sums over members, so the single-device dashboards
// keep working), per-device rows under prefix+".dev<i>", and the scheduler
// counters (devset_shards, devset_steals, devset_rebalance_ns, the merged
// clocks) — the per-device observability ReconcileObs cross-checks.
func (s *DeviceSet) PublishMetrics(reg *obs.Registry, prefix string) {
	agg := s.StatsSum()
	publishDeviceStats(reg, prefix, agg)
	for i, d := range s.devs {
		d.PublishMetrics(reg, fmt.Sprintf("%s.dev%d", prefix, i))
	}
	st := s.Stats()
	reg.Set(prefix+".devset_devices", int64(len(s.devs)))
	reg.Set(prefix+".devset_ops", st.Ops)
	reg.Set(prefix+".devset_shards", st.Shards)
	reg.Set(prefix+".devset_steals", st.Steals)
	reg.Set(prefix+".devset_host_shards", st.HostShards)
	reg.Set(prefix+".devset_rebalance_ns", int64(st.RebalanceSim))
	reg.Set(prefix+".devset_parallel_ns", int64(st.SimParallelTime))
	reg.Set(prefix+".devset_sequential_ns", int64(st.SimSequentialTime))
	reg.Set(prefix+".devset_host_sim_ns", int64(st.HostSim))
	reg.Set(prefix+".devset_precompute_ns", int64(st.SimPrecomputeTime))
}

// StatsSum aggregates the member devices' counters: additive fields sum,
// utilization averages across launching devices, and health reports the
// worst member state.
func (s *DeviceSet) StatsSum() Stats {
	var agg Stats
	agg.Health = DeviceHealthy
	for _, d := range s.devs {
		st := d.Stats()
		agg.KernelLaunches += st.KernelLaunches
		agg.ThreadsExecuted += st.ThreadsExecuted
		agg.WarpsExecuted += st.WarpsExecuted
		agg.BytesHostToDev += st.BytesHostToDev
		agg.BytesDevToHost += st.BytesDevToHost
		agg.SimTransferTime += st.SimTransferTime
		agg.SimComputeTime += st.SimComputeTime
		agg.SimFaultTime += st.SimFaultTime
		agg.SimPrecomputeTime += st.SimPrecomputeTime
		agg.WallKernelTime += st.WallKernelTime
		agg.UtilizationSum += st.UtilizationSum
		agg.UtilizationCount += st.UtilizationCount
		agg.SimStreamTime += st.SimStreamTime
		agg.SimStreamSeqTime += st.SimStreamSeqTime
		agg.StreamChunks += st.StreamChunks
		agg.StreamOps += st.StreamOps
		agg.LaunchFailures += st.LaunchFailures
		agg.WatchdogTrips += st.WatchdogTrips
		agg.FaultAborts += st.FaultAborts
		agg.FaultCorruptions += st.FaultCorruptions
		agg.FaultStalls += st.FaultStalls
		agg.FaultOOMs += st.FaultOOMs
		if healthRank(st.Health) > healthRank(agg.Health) {
			agg.Health = st.Health
		}
		if st.ConsecutiveFailures > agg.ConsecutiveFailures {
			agg.ConsecutiveFailures = st.ConsecutiveFailures
		}
	}
	return agg
}
