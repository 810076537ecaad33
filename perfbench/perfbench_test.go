package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/big"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the tests hold the binary to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs the command on a tiny-size workload and returns the parsed
// final JSON line.
func runTiny(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.05", "--trace", trace}, tinySize, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

func TestEveryWorkloadEmitsEveryNamedMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the command", wl.Name)
		}
		for trace, want := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": bf.EndToEnd, "1": bf.PerLayer} {
			res := runTiny(t, wl.Name, "1", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", wl.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace %s: %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// deterministicMetrics are the sim-clock and count metrics that must be a
// pure function of the seed.
var deterministicMetrics = []string{"sim_step_ms", "wire_bytes_per_value", "agg_err_max", "loss_bias"}

func seedMetrics(t *testing.T, name string, seed uint64) map[string]string {
	t.Helper()
	res, err := measure(workloads[name], tinySize, seed, 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, l := range []metricList{res.endToEnd, res.extra} {
		for _, m := range l {
			out[m.name] = strconv.FormatFloat(m.value, 'g', -1, 64)
		}
	}
	return out
}

// TestSimClockDeterminism runs every workload twice per seed, on seed 1 and
// on a held-out seed, and requires the sim-clock and count metrics to match
// to the last digit.
func TestSimClockDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		for _, seed := range []uint64{1, 7919} {
			a, b := seedMetrics(t, name, seed), seedMetrics(t, name, seed)
			seen := 0
			for _, m := range deterministicMetrics {
				va, ok := a[m]
				if !ok {
					continue // agg_err_max and loss_bias each apply to some workloads only
				}
				seen++
				if va != b[m] {
					t.Errorf("%s seed %d: %s differs between same-seed runs: %s vs %s", name, seed, m, va, b[m])
				}
			}
			if seen != 3 {
				t.Errorf("%s: %d deterministic metrics reported, want 3", name, seen)
			}
		}
	}
}

// TestOracleCatchesWrongAggregate moves one decrypted value of a real round
// by twice the oracle's error bound and requires the gate to reject it.
func TestOracleCatchesWrongAggregate(t *testing.T) {
	for _, build := range []builder{buildSilo, buildTree} {
		w, _, err := build(tinySize, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.step(); err != nil {
			t.Fatal(err)
		}
		errAbs, bound, err := w.check()
		if err != nil || errAbs > bound {
			t.Fatalf("honest round rejected: err=%v errAbs=%g bound=%g", err, errAbs, bound)
		}
		aw := w.(*aggWorkload)
		aw.out[0] += 2 * bound
		if errAbs, bound, err := w.check(); err == nil && errAbs <= bound {
			t.Fatalf("perturbed aggregate accepted: errAbs=%g bound=%g", errAbs, bound)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "silo-agg", "--trace", "2"},
		{"--workload", "silo-agg", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, tinySize, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// The ref work is a real Montgomery multiplication: x·y·R⁻¹ mod m with
// R = 2²⁰⁴⁸, checked against math/big over a chain of calls.
func TestReferenceMontMul(t *testing.T) {
	r := newReference()
	toBig := func(v []uint64) *big.Int {
		b := make([]byte, 0, 8*len(v))
		for i := len(v) - 1; i >= 0; i-- {
			b = binary.BigEndian.AppendUint64(b, v[i])
		}
		return new(big.Int).SetBytes(b)
	}
	m, y := toBig(r.m[:]), toBig(r.y[:])
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64*refLimbs), m)
	want := toBig(r.x[:])
	for range 50 {
		r.montMul()
		want.Mul(want, y).Mul(want, rInv).Mod(want, m)
		if got := toBig(r.x[:]); got.Cmp(want) != 0 {
			t.Fatalf("montMul = %x, want %x", got, want)
		}
	}
}
