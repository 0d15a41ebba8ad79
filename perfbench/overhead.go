package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/teletrace"
	"repro/internal/workload"
)

// runOverhead is the Figure 12 constant-time overhead study as
// `figures -fig 12` runs it: experiments.Figure12With on a harness
// runner with one worker per CPU, one sweep of 8 kernels × 7 schemes
// per seed, consecutive seeds until the window closes. Op = one cell.
//
// Figure12With returns only each cell's cycle count, so the remaining
// simulated totals come from a replay of the same cells built from the
// public workload calls, after the window; the replay must reproduce
// every cell's cycles. Traced runs make that replay the traced one.
func runOverhead(cfg config) (*outcome, error) {
	o := &outcome{}
	var runner *harness.Runner
	var err error
	o.setup, err = timeSetup(cfg.setups, func() error {
		r, err := harness.New(harness.Config{Workers: cfg.workers})
		workload.Suite(cfg.scale, cfg.seed)
		runner = r
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	// A small sweep first builds the engine pool and its arenas, so the
	// window starts warm.
	if _, _, err := experiments.Figure12With(runner, cfg.seed, 100); err != nil {
		return nil, err
	}

	rp, err := newOverheadReplay(cfg)
	if err != nil {
		return nil, err
	}
	var (
		seeds   []int64
		cycles  = map[int64]map[string]uint64{}
		golden  [][]string
		busy    time.Duration
		tWall   []time.Duration
		outputs = newDigest()
	)
	w := openWindow()
	for k := 0; k == 0 || w.elapsed() < cfg.seconds; k++ {
		seed := cfg.seed + int64(k)
		res, rep, err := experiments.Figure12With(runner, seed, cfg.scale)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("figure 12 sweep, seed %d: %w", seed, err)
		}
		seeds = append(seeds, seed)
		o.chunks = append(o.chunks, w.cut(len(rep.Outcomes)))
		for _, oc := range rep.Outcomes {
			o.ops++
			o.lat.add(ms(oc.Elapsed))
			busy += oc.Elapsed
			if !oc.OK() {
				o.failed++
			}
		}
		byCell := map[string]uint64{}
		for _, c := range res.Cells {
			byCell[c.Workload+"/"+c.Scheme] = c.Cycles
		}
		cycles[seed] = byCell
		rows := experiments.Figure12CSV(res)
		csv, err := campaign.EncodeCSV(rows)
		if err != nil {
			w.close()
			return nil, err
		}
		outputs.add("seed %d\n%s", seed, csv)
		if seed == goldenSeed {
			golden = rows
		}
		// Traced runs replay each sweep right after it, so both see the
		// same phases of the host.
		if cfg.trace {
			w.pause()
			t0 := time.Now()
			err := rp.sweep(seed, byCell, o)
			tWall = append(tWall, time.Since(t0))
			if err != nil {
				w.close()
				return nil, err
			}
			w.resume()
		}
	}
	o.peakHeap = w.close()
	o.digest = outputs.sum()
	if golden != nil && cfg.scale == 10000 {
		o.checkGolden(cfg, "figure12", golden)
	}
	if !cfg.trace {
		for _, seed := range seeds {
			if err := rp.sweep(seed, cycles[seed], o); err != nil {
				return nil, err
			}
		}
	}
	o.sim = rp.totals
	if !cfg.trace {
		return o, nil
	}

	l := newLayers()
	snap := rp.reg.Snapshot()
	simLayers(l, snap)
	o.checkSame("overhead traced registry vs cell stats", registryTotals(snap), o.sim)
	t := o.finishTrace(cfg, rp.spans)
	l["cpu.run_ms"] = meanMS(t, "cpu.run")
	l["machine.build_ms"] = meanMS(t, "machine.build")
	l["workload.build_ms"] = meanMS(t, "workload.build")
	if lt := t["cpu.run"]; lt != nil {
		l["cpu.ns_per_stepped_cycle"] = frac(float64(lt.total), l["cpu.stepped_cycles"])
	}
	l["harness.cell_ms"] = frac(ms(rp.cellTime), float64(rp.cells))
	o.runLayers(l, busy, cfg.workers, tWall)
	o.layers = l
	return o, nil
}

// cellTotals is one replayed cell's result.
type cellTotals struct {
	ID     string
	Totals simTotals
}

// overheadReplay re-runs Figure 12 sweeps with the benchmark's own
// cells, traced when cfg.trace, checking each cell's cycles against
// the untraced sweep's and summing the simulated totals.
type overheadReplay struct {
	cfg      config
	runner   *harness.Runner
	reg      *telemetry.Registry
	spans    *spans
	totals   simTotals
	cells    int
	cellTime time.Duration
}

func newOverheadReplay(cfg config) (*overheadReplay, error) {
	rp := &overheadReplay{cfg: cfg, reg: telemetry.NewRegistry(), spans: newSpans()}
	hc := harness.Config{Workers: cfg.workers}
	if cfg.trace {
		hc.Metrics = rp.reg
		hc.Tracer = teletrace.New(teletrace.Config{Service: "perfbench", Store: teletrace.NewStore(0)})
	}
	var err error
	rp.runner, err = harness.New(hc)
	return rp, err
}

// sweep replays seed's sweep; cycles holds the untraced cycles by cell.
func (rp *overheadReplay) sweep(seed int64, cycles map[string]uint64, o *outcome) error {
	sp := rp.spans
	b := sp.start("workload.build", 0)
	suite := workload.Suite(rp.cfg.scale, seed)
	sp.end(b)
	s := sp.start("harness.Sweep", 0)
	rep, err := rp.runner.Sweep("figure12", overheadCells(suite, seed, sp, s))
	sp.end(s)
	if err != nil {
		return fmt.Errorf("replaying seed %d: %w", seed, err)
	}
	for _, oc := range rep.Outcomes {
		rp.cells++
		rp.cellTime += oc.Elapsed
		if !oc.OK() {
			o.failed++
		}
	}
	o.extraOps += len(rep.Outcomes)
	vals, err := harness.Collect[cellTotals](rep)
	if err != nil {
		return err
	}
	for _, v := range vals {
		rp.totals.add(v.Totals)
		if want := cycles[v.ID]; v.Totals.Cycles != want {
			o.problem("seed %d cell %s: replay ran %d cycles, Figure12With %d", seed, v.ID, v.Totals.Cycles, want)
		}
	}
	return nil
}

// overheadCells mirrors the Figure 12 cells: one per (kernel, scheme),
// each on a fresh machine from workload.RunInstrumented. The observe
// hook splits each cell into machine build and simulated run.
func overheadCells(suite []workload.Workload, seed int64, sp *spans, parent int) []harness.Cell {
	var cells []harness.Cell
	for _, wl := range suite {
		for _, sf := range workload.StandardSchemes() {
			wl, sf := wl, sf
			id := wl.Name + "/" + sf.Name
			cells = append(cells, harness.Cell{ID: id, Seed: seed, Run: func(t *harness.Trial) (any, error) {
				cell := sp.start("harness.cell", parent)
				build := sp.start("machine.build", cell)
				var run int
				res, err := workload.RunInstrumented(wl, sf.New(), t.Seed, t.Metrics, func(core *cpu.CPU) {
					t.Observe(core)
					sp.end(build)
					run = sp.start("cpu.run", cell)
				})
				sp.end(run)
				sp.end(cell)
				if err != nil {
					return nil, err
				}
				st := res.Stats
				return cellTotals{ID: id, Totals: simTotals{
					Cycles: st.Cycles, Skipped: st.SkippedCycles, Retired: st.Retired, Squashed: st.SquashedInst,
				}}, nil
			}})
		}
	}
	return cells
}

// newLayers returns every per-layer metric at zero; each workload fills
// in the layers it crosses.
func newLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		l[d.name] = 0
	}
	return l
}
