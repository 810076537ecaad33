// Command flbench regenerates every table and figure of the FLBooster
// paper's evaluation section. Each experiment prints rows in the paper's
// layout, measured at a configurable dataset scale and key-size sweep.
//
// Usage:
//
//	flbench [flags] <experiment>...
//
// Experiments: fig1 table3 table4 fig6 table5 fig7 table6 fig8 table7
// ablation resilience devfault pipeline heopt byz scale round devset soak all
//
// Flags:
//
//	-scale f      dataset scale factor in (0, 1]        (default 0.0008)
//	-keys list    comma-separated key sizes in bits     (default 256,512,1024)
//	-parties n    number of federated participants      (default 4)
//	-epochs n     epochs for convergence experiments    (default 4)
//	-batch n      SGD minibatch size                    (default 64)
//	-seed n       PRNG seed for workloads, chaos, and fault injection (default 1)
//	-chunk n      streamed-pipeline chunk size in plaintexts (default 0 = sequential)
//	-devices n    shard vector HE ops across n simulated devices
//	              (default 0; 0 and 1 both mean one device)
//	-trace file   write a Chrome trace-event JSON of the run's sim-time spans
//	              (load in Perfetto / chrome://tracing)
//	-metrics file write the metrics registry as text ("-" = stdout)
//	-paper        use the paper's full-scale parameters (slow)
//
// Either observability flag turns tracing/metrics on; after every experiment
// the harness reconciles the mirrored metric counters against the run's
// CostSnapshot and fails on drift.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flbooster/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	scale := fs.Float64("scale", 0, "dataset scale factor in (0, 1]")
	keys := fs.String("keys", "", "comma-separated key sizes in bits")
	parties := fs.Int("parties", 0, "number of federated participants")
	epochs := fs.Int("epochs", 0, "epochs for convergence experiments")
	batch := fs.Int("batch", 0, "SGD minibatch size")
	seed := fs.Uint64("seed", 1, "PRNG seed for workloads, chaos, and fault injection")
	chunk := fs.Int("chunk", 0, "streamed-pipeline chunk size in plaintexts (0 = sequential)")
	devices := fs.Int("devices", 0, "shard vector HE ops across this many simulated devices (0 and 1 both mean one device)")
	trace := fs.String("trace", "", "write Chrome trace-event JSON of sim-time spans to this file")
	metrics := fs.String("metrics", "", "write the metrics registry as text to this file (\"-\" = stdout)")
	paper := fs.Bool("paper", false, "use the paper's full-scale parameters")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.Quick()
	if *paper {
		cfg = bench.Paper()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *keys != "" {
		cfg.KeyBits = nil
		for _, part := range strings.Split(*keys, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("invalid -keys element %q: %w", part, err)
			}
			cfg.KeyBits = append(cfg.KeyBits, k)
		}
	}
	if *parties > 0 {
		cfg.Parties = *parties
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *batch > 0 {
		cfg.BatchSize = *batch
	}
	// The seed threads through every workload generator, the network chaos
	// layer, and the device fault injector, so a -seed value reproduces a
	// resilience run exactly (same faults, same retries, same fallbacks).
	cfg.Seed = *seed
	// A positive -chunk streams every upload through the chunked
	// encrypt→send pipeline; the aggregates stay bit-exact either way.
	cfg.Chunk = *chunk
	// Every GPU context shards its vector HE ops through a gpu.DeviceSet of
	// max(-devices, 1) devices; out-of-range values fail Validate with a
	// typed bench.ConfigError naming the field.
	cfg.Devices = *devices
	cfg.Observe = *trace != "" || *metrics != ""

	exps := fs.Args()
	if len(exps) == 0 {
		return fmt.Errorf("no experiment named; choose from table2 fig1 table3 table4 fig6 table5 fig7 table6 fig8 table7 ablation resilience devfault pipeline heopt byz scale round devset soak all")
	}
	r, err := bench.NewRunner(cfg)
	if err != nil {
		return err
	}
	for _, e := range exps {
		var err error
		switch e {
		case "table2":
			err = r.Table2(os.Stdout)
		case "fig1":
			err = r.Fig1(os.Stdout)
		case "table3":
			err = r.Table3(os.Stdout)
		case "table4":
			err = r.Table4(os.Stdout)
		case "fig6":
			err = r.Fig6(os.Stdout)
		case "table5":
			err = r.Table5(os.Stdout)
		case "fig7":
			err = r.Fig7(os.Stdout)
		case "table6":
			err = r.Table6(os.Stdout)
		case "fig8":
			err = r.Fig8(os.Stdout)
		case "table7":
			err = r.Table7(os.Stdout)
		case "ablation":
			err = r.Ablation(os.Stdout)
		case "resilience":
			err = r.Resilience(os.Stdout)
		case "devfault":
			err = r.DeviceFaults(os.Stdout)
		case "pipeline":
			err = r.Pipeline(os.Stdout)
		case "heopt":
			err = r.HEOpt(os.Stdout)
		case "byz":
			err = r.Byz(os.Stdout)
		case "scale":
			// The cross-device sweep sizes its own client counts (10²→10⁵);
			// -parties keeps meaning the cross-silo party count elsewhere.
			err = r.Scale(os.Stdout, nil)
		case "round":
			// The round-anatomy experiment runs at the sweep's largest key:
			// the speedup floor is defined at production (≥2048-bit) keys.
			err = r.Round(os.Stdout)
		case "devset":
			// The multi-device sweep picks its own device counts (1→8, plus
			// -devices when set); like round it runs at the largest key size.
			err = r.Devset(os.Stdout, nil)
		case "soak":
			err = r.Soak(os.Stdout)
		case "all":
			err = r.All(os.Stdout)
		default:
			err = fmt.Errorf("unknown experiment %q", e)
		}
		if err != nil {
			return err
		}
		// Every experiment must leave the metrics mirror and the cost
		// snapshot in exact agreement; drift is a bug, not noise.
		if err := r.ReconcileObs(); err != nil {
			return fmt.Errorf("after %s: %w", e, err)
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		if err := r.Obs().Recorder().WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d sim-time spans to %s\n", r.Obs().Recorder().Len(), *trace)
	}
	if *metrics != "" {
		out := os.Stdout
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := r.Obs().Metrics().WriteText(out); err != nil {
			return err
		}
	}
	return nil
}
