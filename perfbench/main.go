// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four user workloads through the same public calls the CLIs
// make, checks the outputs, and prints one JSON result line last.
//
//	perfbench --workload overhead|leak|fuzz|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 every chunk of the untraced loop is
// replayed right after it with the program's registries and tracers
// bound plus the benchmark's own spans, and the result carries the
// per-layer metrics. README.md explains each workload and metric.
//
// Run it from the repository root (goldens are read from results/),
// normally through perfbench/run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/undo"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*outcome, error){
	"overhead": runOverhead,
	"leak":     runLeak,
	"fuzz":     runFuzz,
	"campaign": runCampaign,
}

func main() {
	var (
		name     = flag.String("workload", "", "overhead, leak, fuzz or campaign")
		seed     = flag.Int64("seed", 42, "workload seed; 42 also checks the committed goldens")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for span dumps and scratch journals")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload overhead|leak|fuzz|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := defaultConfig(*name, *seed, *seconds, *trace == 1)
	cfg.buildDir = *buildDir

	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := o.result(cfg)
	o.report(os.Stdout, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one run's parameters. Tests shrink the scale knobs; the
// benchmark itself always runs defaultConfig.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window; traced runs share it with the replay
	trace    bool
	workers  int
	setups   int    // set-up samples; setup_s is their median
	root     string // repository root holding results/
	buildDir string // span dumps and scratch journals

	scale  int // overhead: workload.Suite scale
	bits   int // leak: bits per block, one block per attack instance
	calib  int // leak: calibration rounds per secret value
	batch  int // fuzz: programs per engine batch
	rounds int // campaign: fresh rounds per coordinator epoch

	// inject wraps every fuzz scheme; only the gate's own test sets it.
	inject func(undo.Scheme) undo.Scheme
}

func defaultConfig(name string, seed int64, seconds float64, trace bool) config {
	return config{
		workload: name, seed: seed, seconds: seconds, trace: trace,
		workers: runtime.NumCPU(),
		setups:  11,
		root:    ".", buildDir: ".bench_build",
		scale: 10000, bits: 1000, calib: 300, batch: 16, rounds: 3,
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the tables below are the
// contract BENCHMARK.json lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"sim_inst_per_s", "1/s"},
	{"stepped_cycles_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"cpu.cycles", "count"},
	{"cpu.stepped_cycles", "count"},
	{"cpu.skip_frac", "frac"},
	{"cpu.retired", "count"},
	{"cpu.squashed_inst", "count"},
	{"cpu.useful_frac", "frac"},
	{"cpu.issued", "count"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.squashes_per_kinst", "1/kinst"},
	{"cpu.run_ms", "ms"},
	{"cpu.ns_per_stepped_cycle", "ns"},
	{"machine.build_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"cache.l1d_accesses", "count"},
	{"cache.l1d_hit_frac", "frac"},
	{"cache.l2_hit_frac", "frac"},
	{"memsys.mem_accesses", "count"},
	{"memsys.restorations", "count"},
	{"memsys.mshr_stalls", "count"},
	{"undo.squashes", "count"},
	{"undo.stall_cycles", "count"},
	{"undo.stall_frac", "frac"},
	{"undo.invalidated", "count"},
	{"undo.restored", "count"},
	{"unxpec.build_ms", "ms"},
	{"unxpec.calibrate_ms", "ms"},
	{"unxpec.round_us", "us"},
	{"unxpec.round_cycles", "cycles"},
	{"fuzz.gen_ms", "ms"},
	{"fuzz.check_ms", "ms"},
	{"fuzz.determinism_ms", "ms"},
	{"engine.busy_frac", "frac"},
	{"harness.attempts", "count"},
	{"harness.retries", "count"},
	{"harness.cell_ms", "ms"},
	{"campaign.lease_ms", "ms"},
	{"campaign.complete_ms", "ms"},
	{"campaign.handler_ms", "ms"},
	{"campaign.empty_lease_frac", "frac"},
	{"campaign.rpcs_per_cell", "count"},
	{"campaign.complete_body_kb", "KB"},
	{"campaign.journal_kb_per_cell", "KB"},
	{"campaign.cache_hits", "count"},
	{"campaign.restart_ms", "ms"},
	{"teletrace.spans_per_cell", "count"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cpu_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// result assembles the JSON line: end-to-end metrics from the untraced
// window, or per-layer metrics when traced.
func (o *outcome) result(cfg config) result {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.ops + o.extraOps,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if o.failed > 0 {
		res.Correct = false
	}
	defs, vals := endToEnd, o.endToEnd()
	if cfg.trace {
		defs, vals = perLayer, o.layers
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// report prints the human-readable part of the output: problems, the
// output digest, op counts and, when traced, the self-time table.
func (o *outcome) report(w io.Writer, cfg config, res result) {
	for _, p := range o.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d ops, %d failed (op_fail_frac %.4f), output digest %s\n",
		cfg.workload, cfg.seed, o.ops, o.failed, frac(float64(o.failed), float64(o.ops)), o.digest)
	if o.golden != "" {
		fmt.Fprintf(w, "golden check: %s\n", o.golden)
	}
	fmt.Fprintf(w, "sim totals: cycles=%d skipped=%d retired=%d squashed=%d\n",
		o.sim.Cycles, o.sim.Skipped, o.sim.Retired, o.sim.Squashed)
	fmt.Fprintf(w, "op latency over %d ops: p50 %.4f ms, p90 %.4f ms", o.lat.n, o.lat.quantile(0.5), o.lat.quantile(0.9))
	if o.lat.n >= 1000 {
		fmt.Fprintf(w, ", p99 %.4f ms", o.lat.quantile(0.99))
	}
	fmt.Fprintf(w, " (%d chunks)\n", len(o.chunks))
	if cfg.trace && len(o.selfTime) > 0 {
		fmt.Fprintln(w, "self time by layer (traced replay):")
		fmt.Fprint(w, o.selfTime)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
