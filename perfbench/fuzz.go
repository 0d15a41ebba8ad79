package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fuzz"
	"repro/internal/telemetry"
)

// runFuzz is the `cmd/fuzz` sweep: program i of the run is
// Generator.Program(seed+i), checked by CheckProgram and
// CheckDeterminism over fuzz.AllSchemes with panics contained, on an
// engine.Pool of one worker per CPU. Batches of cfg.batch programs run
// until the window closes. Op = one program.
//
// The property checks expose no simulated counts, so those come from a
// Generator.Telemetry replay of every program after the window: one
// instrumented run per scheme, where the op runs each scheme three
// times (once in CheckProgram, twice in CheckDeterminism) on identical
// machines.
func runFuzz(cfg config) (*outcome, error) {
	o := &outcome{}
	var (
		pool *engine.Pool
		gens []*fuzz.Generator
	)
	var err error
	o.setup, err = timeSetup(cfg.setups, func() error {
		pool = engine.New(engine.Config{Workers: cfg.workers})
		gens = make([]*fuzz.Generator, pool.Size())
		for j := range gens {
			g, err := fuzz.New(fuzz.DefaultConfig())
			if err != nil {
				return err
			}
			gens[j] = g
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	results := make([]fuzzResult, cfg.batch)
	var (
		busy    time.Duration
		n       int
		sp      *spans
		tWall   []time.Duration
		outputs = newDigest()
		traced  = newDigest()
	)
	if cfg.trace {
		sp = newSpans()
	}
	w := openWindow()
	for n == 0 || w.elapsed() < cfg.seconds {
		base := n
		pool.Run(cfg.batch, func(wk *engine.Worker, i int) {
			t0 := time.Now()
			results[i] = checkSeed(gens[wk.ID], cfg.seed+int64(base+i), cfg, nil)
			results[i].dur = time.Since(t0)
		})
		o.chunks = append(o.chunks, w.cut(cfg.batch))
		for i, r := range results {
			o.ops++
			o.lat.add(ms(r.dur))
			busy += r.dur
			if r.failed() {
				o.failed++
			}
			outputs.add("seed %d %q %q\n", cfg.seed+int64(base+i), r.divs, r.panicMsg)
		}
		// Traced runs check each batch again right after it, so both
		// passes see the same phases of the host.
		if cfg.trace {
			w.pause()
			t0 := time.Now()
			pool.Run(cfg.batch, func(wk *engine.Worker, i int) {
				results[i] = checkSeed(gens[wk.ID], cfg.seed+int64(base+i), cfg, sp)
			})
			tWall = append(tWall, time.Since(t0))
			for i, r := range results {
				if r.failed() {
					o.failed++
				}
				traced.add("seed %d %q %q\n", cfg.seed+int64(base+i), r.divs, r.panicMsg)
			}
			o.extraOps += cfg.batch
			w.resume()
		}
		n += cfg.batch
	}
	o.peakHeap = w.close()
	o.digest = outputs.sum()
	if cfg.trace && traced.sum() != o.digest {
		o.problem("fuzz traced output digest %s, untraced %s", traced.sum(), o.digest)
	}

	// Telemetry replay for the simulated counts, one registry per
	// worker.
	regs := make([]*telemetry.Registry, pool.Size())
	for i := range regs {
		regs[i] = telemetry.NewRegistry()
	}
	errs := make([]error, n)
	pool.Run(n, func(wk *engine.Worker, i int) {
		s := cfg.seed + int64(i)
		g := gens[wk.ID]
		snaps, err := g.Telemetry(g.Program(s), fuzzOptions(s, cfg))
		errs[i] = err
		for _, snap := range snaps {
			for k := 0; k < 3; k++ {
				regs[wk.ID].Absorb(snap)
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("telemetry replay of seed %d: %w", cfg.seed+int64(i), err)
		}
	}
	all := telemetry.NewRegistry()
	for _, r := range regs {
		all.Absorb(r.Snapshot())
	}
	snap := all.Snapshot()
	o.sim = registryTotals(snap)
	if !cfg.trace {
		return o, nil
	}
	l := newLayers()
	simLayers(l, snap)
	t := o.finishTrace(cfg, sp)
	l["fuzz.gen_ms"] = meanMS(t, "fuzz.Program")
	l["fuzz.check_ms"] = meanMS(t, "fuzz.CheckProgram")
	l["fuzz.determinism_ms"] = meanMS(t, "fuzz.CheckDeterminism")
	o.runLayers(l, busy, cfg.workers, tWall)
	o.layers = l
	return o, nil
}

// fuzzResult is one program's verdict.
type fuzzResult struct {
	divs     []string
	panicMsg string
	dur      time.Duration
}

func (r fuzzResult) failed() bool { return len(r.divs) > 0 || r.panicMsg != "" }

// fuzzOptions is the per-program option block cmd/fuzz builds.
func fuzzOptions(s int64, cfg config) fuzz.Options {
	return fuzz.Options{Schemes: fuzz.AllSchemes, MemSeed: s + 1000, MachineSeed: s, Wrap: cfg.inject}
}

// checkSeed generates and checks one program with panics contained,
// spanning each public call when sp is non-nil.
func checkSeed(g *fuzz.Generator, s int64, cfg config, sp *spans) (r fuzzResult) {
	defer func() {
		if p := recover(); p != nil {
			r.panicMsg = fmt.Sprintf("panic: %v", p)
		}
	}()
	opts := fuzzOptions(s, cfg)
	op := sp.start("fuzz.program", 0)
	defer sp.end(op)
	c := sp.start("fuzz.Program", op)
	prog := g.Program(s)
	sp.end(c)
	c = sp.start("fuzz.CheckProgram", op)
	divs := g.CheckProgram(prog, opts)
	sp.end(c)
	c = sp.start("fuzz.CheckDeterminism", op)
	divs = append(divs, g.CheckDeterminism(prog, opts)...)
	sp.end(c)
	for _, d := range divs {
		r.divs = append(r.divs, d.String())
	}
	return r
}
