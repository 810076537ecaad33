package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/gpu"
)

// microConfig keeps unit tests fast: tiny datasets, a 128-bit key, a small
// simulated device.
func microConfig() Config {
	cfg := Quick()
	cfg.Scale = 0.0002
	cfg.KeyBits = []int{128}
	cfg.Epochs = 2
	cfg.BatchSize = 32
	cfg.Device = gpu.RTX3090()
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Fatalf("Quick config invalid: %v", err)
	}
	if err := Paper().Validate(); err != nil {
		t.Fatalf("Paper config invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := Quick(); c.Scale = 2; return c }(),
		func() Config { c := Quick(); c.KeyBits = nil; return c }(),
		func() Config { c := Quick(); c.Parties = 1; return c }(),
		func() Config { c := Quick(); c.Epochs = 0; return c }(),
		func() Config { c := Quick(); c.BatchSize = 0; return c }(),
		func() Config { c := Quick(); c.NNHidden = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewRunner(Config{}); err == nil {
		t.Fatal("NewRunner should reject invalid configs")
	}
}

func TestRunnerCachesContextsAndData(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := r.context(fl.SystemFATE, 128)
	if err != nil {
		t.Fatal(err)
	}
	c1.Costs.AddOther(123)
	c2, err := r.context(fl.SystemFATE, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("context not cached")
	}
	if c2.Costs.TotalSim() != 0 {
		t.Fatal("cached context costs not reset")
	}
	d1, err := r.dataset(datasets.RCV1Spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.dataset(datasets.RCV1Spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("dataset not cached")
	}
}

func TestBuildModelNames(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.dataset(datasets.SyntheticSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ModelNames() {
		m, err := r.buildModel(name, nil, ds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
	if _, err := r.buildModel("nope", nil, ds); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunEpochsPopulatesResult(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.runEpochs("Homo LR", fl.SystemFLBooster, 128, datasets.SyntheticSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.HEOps == 0 || res.Costs.CommBytes == 0 || res.Loss <= 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Utilization <= 0 {
		t.Fatal("GPU profile should report utilization")
	}
}

func TestHeadlineOrderingHolds(t *testing.T) {
	// The reproduction's core claim at any scale: FLBooster beats HAFLO
	// beats FATE on modelled epoch time for the LR models.
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := map[fl.System]float64{}
	for _, sys := range []fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster} {
		res, err := r.runEpochs("Homo LR", sys, 128, datasets.RCV1Spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		times[sys] = res.Costs.TotalSim().Seconds()
	}
	if !(times[fl.SystemFLBooster] < times[fl.SystemHAFLO] && times[fl.SystemHAFLO] < times[fl.SystemFATE]) {
		t.Fatalf("ordering violated: %v", times)
	}
}

func TestAblationOrderingHolds(t *testing.T) {
	// Table V shape: the full system beats both ablations.
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := map[fl.System]float64{}
	for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemNoGHE, fl.SystemNoBC} {
		res, err := r.runEpochs("Homo LR", sys, 128, datasets.RCV1Spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		times[sys] = res.Costs.TotalSim().Seconds()
	}
	if times[fl.SystemFLBooster] >= times[fl.SystemNoGHE] {
		t.Fatalf("removing GPU HE should slow the system: %v", times)
	}
	if times[fl.SystemFLBooster] >= times[fl.SystemNoBC] {
		t.Fatalf("removing batch compression should slow the system: %v", times)
	}
}

// TestAblationPipelineGain: ablation B streams its encryptions through the
// device pipeline, so the overlapped time must come out below the
// sequential one — a gain of exactly 1.00x means no chunk was pipelined.
func TestAblationPipelineGain(t *testing.T) {
	cfg := microConfig()
	cfg.KeyBits = []int{512}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.ablationPipeline(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	row := strings.Fields(lines[len(lines)-1])
	gain, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "x"), 64)
	if err != nil {
		t.Fatalf("gain column of %q: %v", lines[len(lines)-1], err)
	}
	if gain <= 1 {
		t.Fatalf("pipelined gain %.2fx, want > 1:\n%s", gain, buf.String())
	}
}

func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass is slow")
	}
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.All(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 1", "Table III", "Table IV", "Fig. 6", "Table V",
		"Fig. 7", "Table VI", "Fig. 8", "Table VII",
		"Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN",
		"RCV1", "Avazu", "Synthetic", "FLBooster",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{{250, "250.0"}, {2.5, "2.50"}, {0.0042, "0.0042"}}
	for _, c := range cases {
		d := time.Duration(c.sec * float64(time.Second))
		if got := fmtDur(d); got != c.want {
			t.Errorf("fmtDur(%vs) = %q, want %q", c.sec, got, c.want)
		}
	}
}
