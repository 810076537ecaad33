// Package fl is the federated-learning framework substrate: acceleration
// profiles (the FATE / HAFLO / FLBooster configurations plus the paper's
// ablations), the HE context that runs the Fig. 4 pipeline with full cost
// accounting (HE time, communication time, other time — the anatomy of
// Tables III, V and VI), and the secure-aggregation protocol of Fig. 2 that
// the four benchmark models in internal/models train over.
package fl

import (
	"fmt"
	"time"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
)

// System identifies which evaluated system a profile reproduces.
type System string

// The systems compared throughout the paper's evaluation.
const (
	// SystemFATE: serial CPU Paillier, no compression — the baseline
	// framework (FATE v1.x behaviour).
	SystemFATE System = "FATE"
	// SystemHAFLO: GPU-accelerated HE operations with coarse resource
	// allocation, no compression.
	SystemHAFLO System = "HAFLO"
	// SystemFLBooster: GPU HE with the fine-grained resource manager plus
	// batch compression — the full system.
	SystemFLBooster System = "FLBooster"
	// SystemNoGHE: FLBooster without GPU HE (ablation "w/o GHE").
	SystemNoGHE System = "FLBooster w/o GHE"
	// SystemNoBC: FLBooster without batch compression (ablation "w/o BC").
	SystemNoBC System = "FLBooster w/o BC"
)

// Profile is one acceleration configuration. All five systems share every
// code path except the toggles below, so ablation comparisons isolate
// exactly the module under study.
type Profile struct {
	// System names the configuration.
	System System
	// KeyBits is the Paillier key size (the paper sweeps 1024/2048/4096;
	// tests use smaller keys).
	KeyBits int
	// Parties is the number of federated participants p.
	Parties int
	// RBits is the quantization width; the paper uses r+b = 32 with two
	// overflow bits at p = 4 (so r = 30).
	RBits uint
	// GradBound is the quantizer's α.
	GradBound float64
	// UseGPU routes HE batches through the GPU-HE engine.
	UseGPU bool
	// UseBatch enables batch compression.
	UseBatch bool
	// FineRM selects the fine-grained resource manager.
	FineRM bool
	// Device is the GPU model for GPU profiles.
	Device gpu.Config
	// Devices is the simulated device count for GPU profiles: every GPU
	// profile runs on a gpu.DeviceSet of max(Devices, 1) Device-configured
	// members and shards every vector HE op across them (work stealing
	// under faults, merged max-over-devices clock), so 0 and 1 both mean one
	// device. Ignored on CPU profiles.
	Devices int
	// Seed drives every random choice for reproducibility.
	Seed uint64
	// Chunk is the streamed-pipeline chunk size in plaintexts per chunk:
	// when positive, encryption runs chunked through the device streams and
	// uploads overlap the next chunk's compute (§V-B / Fig. 4, actually
	// executed). Zero keeps the whole-batch sequential path.
	Chunk int
	// NoncePool, when positive on a GPU profile, precomputes that many
	// Paillier rⁿ noise terms offline (charged as device precompute time,
	// not online sim-time) so the next encryption batch pops ready noise.
	// Results are bit-exact with the unpooled path; zero disables the pool.
	// Ignored on CPU profiles.
	NoncePool int
	// Round governs fault tolerance of federation rounds: quorum, phase
	// deadlines, and send retries. The zero value is the strict protocol
	// (all parties required, no deadline, no retransmission).
	Round RoundPolicy
	// Faults governs fault tolerance of the GPU-HE substrate: device fault
	// injection and the checked-execution policy (retries, verification).
	// Work no device can serve runs on the host. The zero value injects
	// nothing and checks with defaults. Ignored on CPU profiles.
	Faults FaultPolicy
	// Byz arms the seeded Byzantine-client injector: a fixed compromised
	// cohort rewrites its gradient uploads per the configured attack model.
	// The zero value is an all-honest federation.
	Byz AdversaryConfig
	// Defense arms group-wise robust aggregation: clients are partitioned
	// into seeded groups, HE-summed per group, and only the group sums are
	// decrypted and robustly combined. The zero value keeps the plain
	// single-aggregate round, byte-identical to the pre-defense protocol.
	Defense DefensePolicy
	// Cohort configures cross-device scale: per-round seeded cohort sampling
	// (Size clients scheduled out of the Parties population), hierarchical
	// fan-out-bounded tree aggregation with streaming partial folds, and
	// bounded in-flight uploads. The zero value keeps the flat all-parties
	// round, byte-identical to the pre-cohort protocol.
	Cohort CohortPolicy
	// Overlap configures the round runtime's compute/upload overlap: modelled
	// per-party model computation scheduled on a lane of its own so the wave's
	// encrypt and send streams can run other parties' uploads underneath it.
	// The zero value charges no model compute and keeps per-party uploads on
	// their own stream pairs (the pre-overlap accounting).
	Overlap OverlapPolicy
	// ClassicKey generates the Paillier key with a random generator g instead
	// of the g = n+1 shortcut, making the encrypt-side g^m term a full modular
	// exponentiation — the configuration fixed-base precomputation targets.
	// Ciphertexts under either generator decrypt identically.
	ClassicKey bool
	// Observe attaches a sim-time span recorder and metrics registry to the
	// context at construction (seeded from Seed), so rounds emit traces and
	// the cost counters mirror into metrics. Off by default: the nil
	// recorder/registry path is zero-cost.
	Observe bool
}

// OverlapPolicy models per-party computation and its overlap with the
// upload phase. CompSimPerValue is the modelled forward/backward cost of one
// gradient value; with Enabled the round runtime schedules that compute on a
// per-party lane and overlaps the cohort's encrypt+send underneath it,
// charging the wave at its measured critical path. With CompSimPerValue set
// but Enabled false the same compute is charged sequentially — the baseline
// the overlap is measured against, so both paths price the same work.
type OverlapPolicy struct {
	Enabled         bool
	CompSimPerValue time.Duration
}

// compSim returns the modelled model-compute cost of n gradient values.
func (o OverlapPolicy) compSim(n int) time.Duration {
	return time.Duration(n) * o.CompSimPerValue
}

// FaultPolicy is the device-side counterpart of RoundPolicy: what faults to
// inject into the simulated GPU and how the checked execution layer reacts.
type FaultPolicy struct {
	// Inject configures the seeded device fault injector; the zero value
	// injects no faults.
	Inject gpu.FaultConfig
	// Check configures retry/verification/fallback; zero fields take the
	// CheckedConfig defaults.
	Check ghe.CheckedConfig
}

// NewProfile returns the standard configuration for a system at the given
// key size and party count.
func NewProfile(sys System, keyBits, parties int) Profile {
	p := Profile{
		System:    sys,
		KeyBits:   keyBits,
		Parties:   parties,
		RBits:     30, // r + b = 32 at p ≤ 4, the paper's setting
		GradBound: 1,
		Device:    gpu.RTX3090(),
		Seed:      1,
	}
	switch sys {
	case SystemFATE:
		// all toggles off
	case SystemHAFLO:
		p.UseGPU = true
	case SystemFLBooster:
		p.UseGPU, p.UseBatch, p.FineRM = true, true, true
	case SystemNoGHE:
		p.UseBatch = true
	case SystemNoBC:
		p.UseGPU, p.FineRM = true, true
	default:
		// Unknown systems keep every toggle off and are rejected by
		// Validate, so the error surfaces from NewContext instead of a
		// constructor panic.
	}
	return p
}

// knownSystem reports whether sys is one of the evaluated configurations.
func knownSystem(sys System) bool {
	for _, s := range AllSystems() {
		if s == sys {
			return true
		}
	}
	return false
}

// Validate reports profile configuration errors.
func (p Profile) Validate() error {
	switch {
	case !knownSystem(p.System):
		return fmt.Errorf("fl: unknown system %q", p.System)
	case p.KeyBits < 32:
		return fmt.Errorf("fl: key size %d too small", p.KeyBits)
	case p.Parties < 1:
		return fmt.Errorf("fl: need at least one party, got %d", p.Parties)
	case p.RBits < 2:
		return fmt.Errorf("fl: r = %d too small", p.RBits)
	case p.GradBound <= 0:
		return fmt.Errorf("fl: gradient bound must be positive")
	case p.Chunk < 0:
		return fmt.Errorf("fl: negative pipeline chunk size %d", p.Chunk)
	case p.NoncePool < 0:
		return fmt.Errorf("fl: negative nonce pool depth %d", p.NoncePool)
	case p.Devices < 0:
		return fmt.Errorf("fl: negative device count %d", p.Devices)
	case p.Devices > gpu.MaxDevices:
		return fmt.Errorf("fl: device count %d exceeds %d", p.Devices, gpu.MaxDevices)
	case p.Overlap.CompSimPerValue < 0:
		return fmt.Errorf("fl: negative model-compute cost %v per value", p.Overlap.CompSimPerValue)
	}
	if err := p.Round.Validate(p.Parties); err != nil {
		return err
	}
	if err := p.Byz.Validate(p.Parties); err != nil {
		return err
	}
	if err := p.Defense.Validate(); err != nil {
		return err
	}
	if err := p.Cohort.Validate(p.Parties); err != nil {
		return err
	}
	// A quorum above the sampled cohort size could never be met: every round
	// would fail at admission, so reject the combination up front.
	if p.Cohort.Size > 0 && p.Round.Quorum > p.Cohort.Size {
		return fmt.Errorf("fl: quorum %d exceeds cohort size %d", p.Round.Quorum, p.Cohort.Size)
	}
	if p.UseGPU {
		if err := p.Device.Validate(); err != nil {
			return fmt.Errorf("fl: GPU profile: %w", err)
		}
	}
	return nil
}

// AllSystems lists the five configurations in reporting order.
func AllSystems() []System {
	return []System{SystemFATE, SystemHAFLO, SystemFLBooster, SystemNoGHE, SystemNoBC}
}
