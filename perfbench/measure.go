package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// outcome is everything one workload run measured.
type outcome struct {
	setup    []float64 // seconds per set-up sample
	ops      int       // untraced ops completed in the window
	failed   int       // failed ops, untraced and traced
	extraOps int       // ops of the traced replay, counted as attempted
	lat      latencies // untraced op latencies
	peakHeap uint64    // bytes
	chunks   []chunk   // the window, cut where the workload's loop pauses
	sim      simTotals // simulated totals of the untraced ops

	problems []string // correctness failures: goldens, invariance
	golden   string   // golden-check summary (seed 42 only)
	digest   string   // output digest, comparable across commits

	layers   map[string]float64 // per-layer metrics (traced runs)
	selfTime string             // rendered self-time table (traced runs)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics from the untraced window.
// The op rate and CPU per op are medians over the window's chunks: the
// host's speed shifts in phases shorter than a run, and the median
// keeps a run's figure in the phase that dominates it. The simulated
// rates are the op rate times the exact simulated work per op of the
// whole window, so chunks that happen to hold more or less simulated
// work do not move them.
func (o *outcome) endToEnd() map[string]float64 {
	perChunk := func(f func(c chunk) float64) float64 {
		v := make([]float64, len(o.chunks))
		for i, c := range o.chunks {
			v[i] = f(c)
		}
		return median(v)
	}
	opsPerS := perChunk(func(c chunk) float64 { return frac(float64(c.ops), c.wall.Seconds()) })
	perOp := func(n uint64) float64 { return opsPerS * frac(float64(n), float64(o.ops)) }
	return map[string]float64{
		"setup_s":   median(o.setup),
		"ops_per_s": opsPerS,
		"op_ms_p50": o.lat.quantile(0.5),
		"op_ms_p90": o.lat.quantile(0.9),
		"cpu_ms_per_op": perChunk(func(c chunk) float64 {
			return frac(ms(c.cpu), float64(c.ops))
		}),
		"sim_inst_per_s":       perOp(o.sim.Retired + o.sim.Squashed),
		"stepped_cycles_per_s": perOp(o.sim.Cycles - o.sim.Skipped),
		"sim_cycles_per_s":     perOp(o.sim.Cycles),
		"peak_heap_mb":         float64(o.peakHeap) / (1 << 20),
	}
}

// chunk is one stretch of the window between two pauses of the
// workload's loop: a sweep, a block of bits, a batch of programs or an
// epoch of rounds.
type chunk struct {
	ops             int
	wall, cpu       time.Duration
	allocBytes      float64 // Go heap bytes allocated
	gcCPU, totalCPU float64 // Go runtime CPU estimates, s
}

// simTotals are the simulated counts every rate derives from. They are
// exact: a simulator-only change must leave them identical.
type simTotals struct {
	Cycles, Skipped, Retired, Squashed uint64
}

func (s *simTotals) add(o simTotals) {
	s.Cycles += o.Cycles
	s.Skipped += o.Skipped
	s.Retired += o.Retired
	s.Squashed += o.Squashed
}

func (s *simTotals) sub(o simTotals) {
	s.Cycles -= o.Cycles
	s.Skipped -= o.Skipped
	s.Retired -= o.Retired
	s.Squashed -= o.Squashed
}

// registryTotals reads the simulated totals off a telemetry snapshot.
func registryTotals(s telemetry.Snapshot) simTotals {
	return simTotals{
		Cycles:   s.Counters["cpu_cycles_total"],
		Skipped:  s.Counters["cpu_skipped_cycles_total"],
		Retired:  s.Counters["cpu_retired_total"],
		Squashed: s.Counters["cpu_squashed_inst_total"],
	}
}

// simLayers derives the simulated per-layer counts from a registry
// snapshot of the traced replay.
func simLayers(l map[string]float64, s telemetry.Snapshot) {
	c := s.Counters
	t := registryTotals(s)
	stepped := float64(t.Cycles - t.Skipped)
	l1d := float64(c["cache_l1d_hits_total"] + c["cache_l1d_misses_total"])
	l2 := float64(c["cache_l2_hits_total"] + c["cache_l2_misses_total"])
	stall := s.Histograms["undo_rollback_stall_cycles"].Sum
	l["cpu.cycles"] = float64(t.Cycles)
	l["cpu.stepped_cycles"] = stepped
	l["cpu.skip_frac"] = frac(float64(t.Skipped), float64(t.Cycles))
	l["cpu.retired"] = float64(t.Retired)
	l["cpu.squashed_inst"] = float64(t.Squashed)
	l["cpu.useful_frac"] = frac(float64(t.Retired), float64(t.Retired+t.Squashed))
	l["cpu.issued"] = float64(c["cpu_issued_total"])
	l["cpu.ipc"] = frac(float64(t.Retired), float64(t.Cycles))
	l["cpu.squashes_per_kinst"] = frac(1000*float64(c["cpu_squashes_total"]), float64(t.Retired))
	l["cache.l1d_accesses"] = l1d
	l["cache.l1d_hit_frac"] = frac(float64(c["cache_l1d_hits_total"]), l1d)
	l["cache.l2_hit_frac"] = frac(float64(c["cache_l2_hits_total"]), l2)
	l["memsys.mem_accesses"] = float64(c["hier_mem_accesses_total"])
	l["memsys.restorations"] = float64(c["hier_restorations_total"])
	l["memsys.mshr_stalls"] = float64(c["mshr_stalls_total"])
	l["undo.squashes"] = float64(c["undo_squashes_total"])
	l["undo.stall_cycles"] = stall
	l["undo.stall_frac"] = frac(stall, float64(t.Cycles))
	l["undo.invalidated"] = float64(c["undo_invalidated_total"])
	l["undo.restored"] = float64(c["undo_restored_total"])
	l["harness.attempts"] = float64(c["harness_attempts_total"])
	l["harness.retries"] = float64(c["harness_retries_total"])
}

// checkSame records a problem when two runs of the same inputs report
// different simulated totals.
func (o *outcome) checkSame(what string, a, b simTotals) {
	if a != b {
		o.problem("simulated totals differ, %s: %+v vs %+v", what, a, b)
	}
}

// window times a closed loop chunk by chunk: wall clock, process CPU
// time and the Go runtime's allocation and GC CPU counters, plus the
// live Go heap, sampled every few milliseconds for its peak. The live
// heap is what the last collection marked, so the peak does not depend
// on how much garbage awaited collection when it was sampled. A chunk
// may be several segments: pause and resume leave out what runs in
// between, such as a traced replay.
type window struct {
	start time.Time
	seg   time.Time        // start of the open segment
	cpu   time.Duration    // process CPU at seg
	rt    []metrics.Sample // runtime counters at seg
	acc   chunk            // the current chunk's closed segments
	peak  uint64           // peak live heap so far; the sampler's until done closes
	stop  chan struct{}
	done  chan struct{}
}

var runtimeMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openWindow collects garbage first so every window starts from the
// same heap, then starts the clocks and the heap sampler.
func openWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	w.resume()
	w.start = w.seg
	go func() {
		defer close(w.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: runtimeMetrics[0]}}
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }

// resume opens a segment of the current chunk.
func (w *window) resume() {
	w.rt = readRuntime()
	w.cpu = processCPU()
	w.seg = time.Now()
}

// pause closes the open segment into the current chunk.
func (w *window) pause() {
	now, cpu, rt := time.Now(), processCPU(), readRuntime()
	w.acc.wall += now.Sub(w.seg)
	w.acc.cpu += cpu - w.cpu
	w.acc.allocBytes += sampleValue(rt[1]) - sampleValue(w.rt[1])
	w.acc.gcCPU += sampleValue(rt[2]) - sampleValue(w.rt[2])
	w.acc.totalCPU += sampleValue(rt[3]) - sampleValue(w.rt[3])
}

// cut ends the current chunk after ops ops and opens the next.
func (w *window) cut(ops int) chunk {
	w.pause()
	c := w.acc
	c.ops = ops
	w.acc = chunk{}
	w.resume()
	return c
}

// close stops the sampler and returns the peak live heap in bytes.
func (w *window) close() uint64 {
	close(w.stop)
	<-w.done
	return max(w.peak, readRuntime()[0].Value.Uint64())
}

// untraced sums the window's chunks: all of an untraced run, the
// untraced share of a traced one.
func (o *outcome) untraced() chunk {
	var s chunk
	for _, c := range o.chunks {
		s.ops += c.ops
		s.wall += c.wall
		s.cpu += c.cpu
		s.allocBytes += c.allocBytes
		s.gcCPU += c.gcCPU
		s.totalCPU += c.totalCPU
	}
	return s
}

// runLayers fills the per-layer metrics every workload measures the
// same way: the Go runtime's share of the untraced chunks, how busy the
// workers kept (busy is the summed op time), and the tracing overhead,
// 1 − traced op rate ÷ untraced op rate, as the median over chunks of
// each chunk against its traced replay, which ran right after it.
func (o *outcome) runLayers(l map[string]float64, busy time.Duration, workers int, tracedWall []time.Duration) {
	u := o.untraced()
	l["go.alloc_kb_per_op"] = frac(u.allocBytes/1024, float64(u.ops))
	l["go.gc_cpu_frac"] = frac(u.gcCPU, u.totalCPU)
	if busy > 0 {
		l["engine.busy_frac"] = frac(busy.Seconds(), u.wall.Seconds()*float64(workers))
	}
	ratios := make([]float64, len(tracedWall))
	for i, t := range tracedWall {
		ratios[i] = frac(o.chunks[i].wall.Seconds(), t.Seconds())
	}
	l["trace_overhead_frac"] = 1 - median(ratios)
}

// setupSample is the shortest time one set-up sample measures.
const setupSample = 2 * time.Millisecond

// timeSetup measures a workload's set-up k times. Each sample is the
// mean of as many back-to-back set-ups as fill setupSample, so
// sub-millisecond set-ups time as steadily as long ones. discard, when
// non-nil, releases the previous set-up before the next one starts; it
// is not timed.
func timeSetup(k int, setup func() error, discard func()) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		n := 0
		var spent time.Duration
		for n == 0 || spent < setupSample {
			if discard != nil && (i > 0 || n > 0) {
				discard()
			}
			t0 := time.Now()
			err := setup()
			spent += time.Since(t0)
			if err != nil {
				return nil, err
			}
			n++
		}
		out = append(out, spent.Seconds()/float64(n))
	}
	return out, nil
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// latencies is a histogram of op latencies in buckets 0.1% wide from
// 1 µs up, so recording a latency never grows the heap being measured.
type latencies struct {
	counts []uint32
	n      int
}

const (
	latMinMS  = 1e-3
	latGrowth = 1.001
)

var latLogGrowth = math.Log(latGrowth)

func (l *latencies) add(v float64) {
	if l.counts == nil {
		l.counts = make([]uint32, 25000) // up to 1e-3·1.001^25000 ms ≈ 20 h
	}
	i := 0
	if v > latMinMS {
		i = min(int(math.Log(v/latMinMS)/latLogGrowth), len(l.counts)-1)
	}
	l.counts[i]++
	l.n++
}

// quantile interpolates linearly between the order statistics around
// rank q·(n−1), as quantile does for a slice. Between two clusters of
// latencies, such as Figure 12's cheap and dense kernels, it lands
// between them instead of jumping from one to the other.
func (l *latencies) quantile(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	r := q * float64(l.n-1)
	k := int(r)
	v := l.at(k)
	if k+1 < l.n {
		v += (r - float64(k)) * (l.at(k+1) - v)
	}
	return v
}

// at estimates the k-th smallest latency (from 0), spreading the
// latencies of a bucket evenly across it.
func (l *latencies) at(k int) float64 {
	cum := 0
	for i, c := range l.counts {
		if cum+int(c) > k {
			pos := (float64(k-cum) + 0.5) / float64(c)
			return latMinMS * math.Pow(latGrowth, float64(i)+pos)
		}
		cum += int(c)
	}
	return latMinMS * math.Pow(latGrowth, float64(len(l.counts)))
}

// digest accumulates a workload's outputs into one comparable hash.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// spans records the benchmark's own spans around each public call it
// makes. They stay in memory until the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	recs []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span under parent (0: root) and returns its ID.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{ID: len(s.recs) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(s.recs)
}

// end closes span id; 0 (a span never opened) is ignored.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.recs[id-1].End = now
	s.mu.Unlock()
}

// add records an already finished span.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{ID: len(s.recs) + 1, Parent: parent, Name: name,
		Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds()})
	return len(s.recs)
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	count       int
	total, self time.Duration
}

// byName aggregates spans by name. A span's self time is its duration
// minus the part of it that its children's intervals cover.
func (s *spans) byName() map[string]*layerTime {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[int][]spanRec{}
	for _, r := range s.recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	out := map[string]*layerTime{}
	for _, r := range s.recs {
		if r.End < 0 {
			continue
		}
		lt := out[r.Name]
		if lt == nil {
			lt = &layerTime{}
			out[r.Name] = lt
		}
		lt.count++
		lt.total += time.Duration(r.End - r.Start)
		lt.self += time.Duration(r.End-r.Start) - covered(r, children[r.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = -1
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// mean returns the mean duration of spans called name, in ms.
func meanMS(t map[string]*layerTime, name string) float64 {
	lt := t[name]
	if lt == nil || lt.count == 0 {
		return 0
	}
	return ms(lt.total) / float64(lt.count)
}

// table renders the self-time table, largest self time first.
func selfTable(t map[string]*layerTime) string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t[names[i]].self > t[names[j]].self })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %8s %12s %12s\n", "span", "count", "self_ms", "total_ms")
	for _, n := range names {
		lt := t[n]
		fmt.Fprintf(&b, "  %-28s %8d %12.3f %12.3f\n", n, lt.count, ms(lt.self), ms(lt.total))
	}
	return b.String()
}

// write dumps the spans as JSON into dir.
func (s *spans) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	buf, err := json.Marshal(s.recs)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// finishTrace renders the span table into o and writes the spans out.
func (o *outcome) finishTrace(cfg config, s *spans) map[string]*layerTime {
	t := s.byName()
	o.selfTime = selfTable(t)
	name := fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)
	if err := s.write(cfg.buildDir, name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return t
}
