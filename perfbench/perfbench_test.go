package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fuzz"
)

// tinyConfig shrinks a workload to a fraction of a second.
func tinyConfig(t *testing.T, name string, trace bool) config {
	cfg := defaultConfig(name, 1, 0.05, trace)
	cfg.root = ".."
	cfg.buildDir = t.TempDir()
	cfg.setups = 2
	cfg.scale = 200
	cfg.bits = 40
	cfg.calib = 20
	cfg.batch = 4
	cfg.rounds = 1
	return cfg
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := o.result(cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%q",
					name, trace, res.Correct, res.Failed, res.Attempted, o.problems)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

func TestFuzzGateCatchesSkipRollback(t *testing.T) {
	in, err := fuzz.ParseInjection("skip-rollback")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, "fuzz", false)
	cfg.batch = 8
	cfg.inject = in.Wrapper()
	o, err := runFuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := o.result(cfg)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("skip-rollback injected: failed=%d correct=%v, want failures", res.Failed, res.Correct)
	}
}

func TestOverheadGoldenGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full Figure 12 sweeps")
	}
	golden, err := os.ReadFile("../results/figure12.csv")
	if err != nil {
		t.Fatal(err)
	}
	perturbed := t.TempDir()
	if err := os.MkdirAll(filepath.Join(perturbed, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(golden), "0.", "1.", 1)
	if err := os.WriteFile(filepath.Join(perturbed, "results", "figure12.csv"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		root string
		ok   bool
	}{{"..", true}, {perturbed, false}} {
		cfg := defaultConfig("overhead", goldenSeed, 0.01, false)
		cfg.root, cfg.buildDir, cfg.setups = tc.root, t.TempDir(), 1
		o, err := runOverhead(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := o.result(cfg); res.Correct != tc.ok {
			t.Errorf("root %s: correct=%v, want %v (golden: %s, problems %q)", tc.root, res.Correct, tc.ok, o.golden, o.problems)
		}
	}
}

func TestQuantileAndSelfTime(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	// The histogram agrees with the exact quantile to its 0.1% buckets,
	// also across a gap between two clusters.
	var l latencies
	var v []float64
	for i := 0; i < 28; i++ {
		for _, x := range []float64{50 + float64(i)*3, 250 + float64(i)*5} {
			l.add(x)
			v = append(v, x)
		}
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got, want := l.quantile(q), quantile(v, q); math.Abs(got-want) > 0.002*want {
			t.Errorf("histogram q%.1f = %v, exact %v", q, got, want)
		}
	}
	// Parent [0,100] with children [10,40] and [30,60] (overlapping)
	// and [90,120] (clipped to 90..100): covered = 50+10 = 60.
	p := spanRec{ID: 1, Start: 0, End: 100}
	kids := []spanRec{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 60 {
		t.Errorf("covered = %v, want 60", got)
	}
}
