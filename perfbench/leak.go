package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/noise"
	"repro/internal/telemetry"
	"repro/internal/unxpec"
)

// runLeak is the attack as `cmd/unxpec` and Figures 10–11 run it: two
// noisy attack instances per seed, eviction sets off and on, each
// calibrated with CalibrateChecked, then one bit leaked per
// LeakSecretChecked call. Blocks of cfg.bits bits alternate between the
// instances. Single-threaded: each noise model is one RNG stream.
// Op = one leaked bit.
func runLeak(cfg config) (*outcome, error) {
	o := &outcome{}
	var pair [2]*leaker
	var first [2]calState
	setups := 0
	var err error
	o.setup, err = timeSetup(cfg.setups, func() error {
		p, err := newLeakers(cfg, nil, nil)
		if err != nil {
			return err
		}
		for j, l := range p {
			if setups == 0 {
				first[j] = l.cal
			} else if l.cal != first[j] {
				o.problem("set-up %d: %s calibration %+v, first set-up %+v", setups, l.name, l.cal, first[j])
			}
		}
		pair = p
		setups++
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// Traced runs replay every block right after it on a second pair of
	// instances bound to a registry and the benchmark's spans, so both
	// passes see the same phases of the host.
	var (
		tp     [2]*leaker
		reg    = telemetry.NewRegistry()
		sp     *spans
		traced = newDigest()
		tWall  []time.Duration
	)
	if cfg.trace {
		sp = newSpans()
		if tp, err = newLeakers(cfg, reg, sp); err != nil {
			return nil, err
		}
		for j, l := range tp {
			if l.cal != first[j] {
				o.problem("traced %s calibration %+v, untraced %+v", l.name, l.cal, first[j])
			}
		}
	}
	regStart := reg.Snapshot()
	before, tBefore := pairTotals(pair), simTotals{}
	if cfg.trace {
		tBefore = pairTotals(tp)
	}

	outputs := newDigest()
	var golden [2]unxpec.LeakResult
	w := openWindow()
	blocks := 0
	for ; blocks == 0 || w.elapsed() < cfg.seconds; blocks++ {
		res := pair[blocks%2].leakBlock(cfg, blocks, o, nil, 0)
		o.chunks = append(o.chunks, w.cut(cfg.bits))
		outputs.add("block %d %v %v\n", blocks, res.Latencies, res.Guesses)
		if blocks < 2 {
			golden[blocks] = res
		}
		if cfg.trace {
			w.pause()
			t0 := time.Now()
			blk := sp.start("leak.block", 0)
			res := tp[blocks%2].leakBlock(cfg, blocks, o, sp, blk)
			sp.end(blk)
			tWall = append(tWall, time.Since(t0))
			traced.add("block %d %v %v\n", blocks, res.Latencies, res.Guesses)
			o.extraOps += cfg.bits
			w.resume()
		}
	}
	o.peakHeap = w.close()
	o.sim = pairTotals(pair)
	o.sim.sub(before)
	o.digest = outputs.sum()
	if cfg.seed == goldenSeed && cfg.bits == 1000 && cfg.calib == 300 {
		for i, name := range []string{"figure10", "figure11"} {
			o.checkGolden(cfg, name, experiments.LeakageCSV(experiments.LeakageResult{LeakResult: golden[i]}))
		}
	}
	if !cfg.trace {
		return o, nil
	}

	tt := pairTotals(tp)
	tt.sub(tBefore)
	o.checkSame("leak traced vs untraced", tt, o.sim)
	if traced.sum() != o.digest {
		o.problem("leak traced output digest %s, untraced %s", traced.sum(), o.digest)
	}
	l := newLayers()
	snap := reg.Snapshot().Diff(regStart)
	simLayers(l, snap)
	o.checkSame("leak traced registry vs core stats", registryTotals(snap), tt)
	t := o.finishTrace(cfg, sp)
	l["unxpec.build_ms"] = meanMS(t, "unxpec.New")
	l["unxpec.calibrate_ms"] = meanMS(t, "unxpec.CalibrateChecked")
	l["unxpec.round_us"] = 1000 * meanMS(t, "unxpec.LeakSecretChecked")
	l["unxpec.round_cycles"] = frac(float64(tt.Cycles), float64(blocks*cfg.bits))
	l["cpu.run_ms"] = meanMS(t, "unxpec.LeakSecretChecked")
	if lt := t["unxpec.LeakSecretChecked"]; lt != nil {
		l["cpu.ns_per_stepped_cycle"] = frac(float64(lt.total), l["cpu.stepped_cycles"])
	}
	o.runLayers(l, 0, 1, tWall)
	o.layers = l
	return o, nil
}

// leaker is one calibrated attack instance.
type leaker struct {
	name string
	a    *unxpec.Attack
	cal  calState
}

// calState is what calibration leaves behind; equal inputs must leave
// equal states.
type calState struct {
	Threshold float64
	Cycle     uint64
}

// newLeakers builds and calibrates the two instances of cfg.seed: the
// Figure 10 machine (no eviction sets) and the Figure 11 machine.
func newLeakers(cfg config, reg *telemetry.Registry, sp *spans) ([2]*leaker, error) {
	var out [2]*leaker
	for i, name := range []string{"figure10", "figure11"} {
		s := sp.start("unxpec.New", 0)
		a, err := unxpec.New(unxpec.Options{
			Seed: cfg.seed, UseEvictionSets: i == 1, Noise: noise.NewSystem(cfg.seed + 2000),
		})
		sp.end(s)
		if err != nil {
			return out, fmt.Errorf("building %s attack: %w", name, err)
		}
		if reg != nil {
			a.SetMetrics(reg)
		}
		c := sp.start("unxpec.CalibrateChecked", 0)
		cal, err := a.CalibrateChecked(cfg.calib)
		sp.end(c)
		if err != nil {
			return out, fmt.Errorf("calibrating %s attack: %w", name, err)
		}
		out[i] = &leaker{name: name, a: a, cal: calState{cal.Threshold, a.Core().Cycle()}}
	}
	return out, nil
}

// leakBlock leaks block b's secret one bit per call, timing each bit
// into o when untraced (sp == nil) and spanning it when traced.
func (l *leaker) leakBlock(cfg config, b int, o *outcome, sp *spans, parent int) unxpec.LeakResult {
	// Blocks 0 and 1 leak the Figure 10/11 secret; later ones fresh bits.
	secret := unxpec.RandomSecret(cfg.bits, cfg.seed+3000+int64(b/2))
	res := unxpec.LeakResult{Truth: secret, SamplesPerBit: 1}
	for i := range secret {
		t0 := time.Now()
		r, err := l.a.LeakSecretChecked(secret[i:i+1], l.cal.Threshold, 1)
		if sp == nil {
			o.lat.add(ms(time.Since(t0)))
			o.ops++
		} else {
			sp.add("unxpec.LeakSecretChecked", parent, t0, time.Now())
		}
		if err != nil || len(r.Guesses) != 1 {
			o.failed++
			res.Latencies = append(res.Latencies, 0)
			res.Guesses = append(res.Guesses, -1)
			continue
		}
		res.Latencies = append(res.Latencies, r.Latencies[0])
		res.Guesses = append(res.Guesses, r.Guesses[0])
	}
	return res
}

// pairTotals reads both instances' cumulative simulated totals.
func pairTotals(p [2]*leaker) simTotals {
	var t simTotals
	for _, l := range p {
		st := l.a.Core().Snapshot()
		t.add(simTotals{Cycles: l.a.Core().Cycle(), Skipped: st.SkippedCycles, Retired: st.Retired, Squashed: st.SquashedInst})
	}
	return t
}
