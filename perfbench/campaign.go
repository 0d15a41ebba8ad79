package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/teletrace"
)

// campaignSweeps are the small-cell figure sweeps the campaign workload
// submits each round: 76 cells of a few milliseconds each.
var campaignSweeps = []string{"figure2", "figure3", "figure6", "figure13"}

// pollInterval is the workers' idle poll. The campaignw default of
// 250 ms would leave a closed loop of short rounds mostly idle.
const pollInterval = 10 * time.Millisecond

// runCampaign serves the campaign coordinator in process, with a
// journal and a tracer as `campaignd serve` defaults to, on loopback,
// with one campaign.RunWorker goroutine per CPU. The client works in
// epochs: a fresh coordinator and journal, cfg.rounds rounds that each
// submit the four sweeps at a fresh seed and wait until all their
// cells are terminal, then a coordinator restart that resumes the
// journal and one round repeating the epoch's first seed, which the
// result cache must serve without simulating. Status is polled in
// process. Op = one cell, from submit to terminal.
func runCampaign(cfg config) (*outcome, error) {
	o := &outcome{}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.buildDir, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is the coordinator's start: server, journal, tracer and
	// listener. Each set-up sample stops the one before it.
	var c *coordinator
	setups := 0
	o.setup, err = timeSetup(cfg.setups, func() error {
		setups++
		c, err = startCoordinator(cfg, filepath.Join(dir, fmt.Sprintf("setup%d", setups)), nil)
		return err
	}, func() { c.stop() })
	if err != nil {
		return nil, err
	}
	c.startWorkers()

	// Traced runs replay every step of an epoch right after it on a
	// second coordinator behind a wrapping handler and a wrapping worker
	// transport, with the benchmark's spans around every round and
	// restart, so both passes see the same phases of the host. Each
	// side's workers poll idle while the other side runs.
	var (
		tc     *coordinator
		sp     *spans
		fresh  = telemetry.NewRegistry()
		traced []roundResult
		tWall  []time.Duration
	)
	if cfg.trace {
		sp = newSpans()
		if tc, err = startCoordinator(cfg, filepath.Join(dir, "traced"), sp); err != nil {
			c.stop()
			return nil, err
		}
		tc.startWorkers()
	}
	stop := func() {
		c.stop()
		if tc != nil {
			tc.stop()
		}
	}
	var tStart telemetry.Snapshot
	if tc != nil {
		tStart = tc.reg.Snapshot()
	}

	var rounds []roundResult
	seeds, tSeeds := seedStream(cfg.seed), seedStream(cfg.seed)
	w := openWindow()
	for epoch := 0; err == nil && (epoch == 0 || w.elapsed() < cfg.seconds); epoch++ {
		ops := 0
		var epochTraced time.Duration
		for i := 0; err == nil && i <= cfg.rounds; i++ {
			var r roundResult
			if r, err = c.step(epoch, i, seeds, nil); err != nil {
				break
			}
			rounds = append(rounds, r)
			ops += r.cells
			if tc == nil {
				continue
			}
			// Steps alternate, so neither side's workers idle for long.
			w.pause()
			t0 := time.Now()
			tc.recording.Store(true)
			r, err = tc.step(epoch, i, tSeeds, fresh)
			tc.recording.Store(false)
			epochTraced += time.Since(t0)
			traced = append(traced, r)
			w.resume()
		}
		o.chunks = append(o.chunks, w.cut(ops))
		if tc != nil {
			tWall = append(tWall, epochTraced)
		}
	}
	o.peakHeap = w.close()
	stop()
	if err != nil {
		return nil, err
	}

	outputs := newDigest()
	for _, r := range rounds {
		o.tallyRound(r, true)
		outputs.add("seed %d %x\n", r.seed, r.csv)
		if !r.repeat {
			o.sim.add(r.totals)
		}
	}
	o.digest = outputs.sum()
	if rounds[0].seed == goldenSeed {
		for i, name := range campaignSweeps {
			o.checkGoldenBytes(cfg, name, rounds[0].csv[i])
		}
	}
	checkRepeats(o, rounds, "untraced")
	if tc == nil {
		return o, nil
	}

	var freshCells int
	var tt simTotals
	for i, r := range traced {
		o.tallyRound(r, false)
		if !r.repeat {
			freshCells += r.cells
			tt.add(r.totals)
		}
		if !bytes.Equal(bytes.Join(r.csv, nil), bytes.Join(rounds[i].csv, nil)) {
			o.problem("campaign traced round %d (seed %d) results differ from untraced", i, r.seed)
		}
	}
	checkRepeats(o, traced, "traced")
	o.checkSame("campaign traced vs untraced", tt, o.sim)

	l := newLayers()
	simLayers(l, fresh.Snapshot())
	delta := tc.reg.Snapshot().Diff(tStart)
	t := o.finishTrace(cfg, sp)
	tr := tc.transport
	l["campaign.lease_ms"] = meanMS(t, "rpc /v1/lease")
	l["campaign.complete_ms"] = meanMS(t, "rpc /v1/complete")
	var handled layerTime
	for name, lt := range t {
		if strings.HasPrefix(name, "handler ") {
			handled.count += lt.count
			handled.total += lt.total
		}
	}
	l["campaign.handler_ms"] = frac(ms(handled.total), float64(handled.count))
	l["campaign.empty_lease_frac"] = frac(float64(tr.emptyLeases.Load()), float64(tr.leases.Load()))
	l["campaign.rpcs_per_cell"] = frac(float64(tr.rpcs.Load()), float64(freshCells))
	l["campaign.complete_body_kb"] = frac(float64(tr.completeBytes.Load())/1024, float64(tr.completes.Load()))
	l["campaign.journal_kb_per_cell"] = frac(float64(tc.journalBytes())/1024, float64(freshCells))
	l["campaign.cache_hits"] = float64(delta.Counters["campaign_cache_hits_total"])
	l["campaign.restart_ms"] = meanMS(t, "campaign.restart")
	l["teletrace.spans_per_cell"] = frac(float64(delta.Counters["campaign_trace_spans_total"]), float64(freshCells))
	o.runLayers(l, 0, cfg.workers, tWall)
	o.layers = l
	return o, nil
}

// seedStream yields the fresh seeds of a run: seed, seed+1, … skipping
// 0, which experiments.Params normalizes to 42.
func seedStream(seed int64) func() int64 {
	next := seed
	return func() int64 {
		if next == 0 {
			next++
		}
		next++
		return next - 1
	}
}

// roundResult is one round: four submissions of one seed.
type roundResult struct {
	seed        int64
	repeat      bool
	cells       int
	cached      int
	quarantined int
	lat         []float64 // per cell, submit to terminal, ms
	csv         [][]byte  // results.csv per sweep
	totals      simTotals // simulated counts the coordinator absorbed
}

// tallyRound adds a round's ops to o. Quarantined cells fail, and so
// does every cell a repeat round had to simulate again.
func (o *outcome) tallyRound(r roundResult, untraced bool) {
	failed := r.quarantined
	if r.repeat {
		failed += r.cells - r.cached
	}
	o.failed += failed
	if untraced {
		o.ops += r.cells
		for _, v := range r.lat {
			o.lat.add(v)
		}
	} else {
		o.extraOps += r.cells
	}
}

// checkRepeats requires every repeat round to reproduce its original
// round's results and simulated counts from the cache.
func checkRepeats(o *outcome, rounds []roundResult, pass string) {
	orig := map[int64]roundResult{}
	for _, r := range rounds {
		if !r.repeat {
			orig[r.seed] = r
			continue
		}
		first, ok := orig[r.seed]
		if !ok {
			o.problem("%s repeat of seed %d has no original round", pass, r.seed)
			continue
		}
		if !bytes.Equal(bytes.Join(r.csv, nil), bytes.Join(first.csv, nil)) {
			o.problem("%s repeat of seed %d: cached results differ from the original", pass, r.seed)
		}
		o.checkSame(fmt.Sprintf("%s repeat of seed %d vs original", pass, r.seed), r.totals, first.totals)
	}
}

// coordinator is one pass's in-process campaignd plus its workers. The
// listener stays up across coordinator restarts: the front handler
// forwards to whichever server is current.
type coordinator struct {
	cfg       config
	prefix    string // journal path prefix
	sp        *spans // nil when untraced
	reg       *telemetry.Registry
	transport *countingTransport

	// recording gates the spans and RPC counts of a traced pass to the
	// epochs it measures, not the idle polls between them.
	recording atomic.Bool

	epochSeed int64 // the current epoch's first seed, which its last step repeats
	stopping  atomic.Bool

	mu       sync.Mutex
	srv      *campaign.Server
	journals []string
	current  atomic.Value // http.Handler of srv

	ln      net.Listener
	hs      *http.Server
	served  chan struct{}
	workers sync.WaitGroup
}

// startCoordinator builds the first coordinator and serves it on a
// loopback port. Its journals are named <prefix>-journal<N>.jsonl.
func startCoordinator(cfg config, prefix string, sp *spans) (*coordinator, error) {
	c := &coordinator{cfg: cfg, prefix: prefix, sp: sp, reg: telemetry.NewRegistry(), served: make(chan struct{})}
	c.transport = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), sp: sp, recording: &c.recording}
	if err := c.swap(false); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.closeServer()
		return nil, err
	}
	c.ln = ln
	c.hs = &http.Server{Handler: http.HandlerFunc(c.serveHTTP)}
	go func() {
		defer close(c.served)
		_ = c.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return c, nil
}

// serveHTTP forwards to the current server's handler, spanning it
// while a traced epoch runs.
func (c *coordinator) serveHTTP(w http.ResponseWriter, r *http.Request) {
	h := c.current.Load().(http.Handler)
	if !c.recording.Load() {
		h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.ServeHTTP(w, r)
	c.sp.add("handler "+r.URL.Path, 0, t0, time.Now())
}

// swap replaces the current server: a fresh one on a new journal, or
// (resume) one that replays the current journal into its result cache,
// as a restarted `campaignd serve -resume` does.
func (c *coordinator) swap(resume bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !resume {
		c.journals = append(c.journals, fmt.Sprintf("%s-journal%d.jsonl", c.prefix, len(c.journals)))
	}
	srv, err := campaign.NewServer(campaign.Config{
		JournalPath: c.journals[len(c.journals)-1],
		Resume:      resume,
		LeaseTTL:    30 * time.Second,
		MaxAttempts: 5,
		BackoffBase: 500 * time.Millisecond,
		BackoffMax:  15 * time.Second,
		ReadBurst:   10,
		ReadWidth:   8,
		ReadQueue:   16,
		AggTTL:      time.Second,
		Metrics:     c.reg,
		Tracer: teletrace.New(teletrace.Config{
			Service: "campaignd", Store: teletrace.NewStore(teletrace.DefaultStoreCap),
		}),
	})
	if err != nil {
		return err
	}
	old := c.srv
	c.srv = srv
	c.current.Store(srv.Handler())
	if old != nil {
		return old.Close()
	}
	return nil
}

func (c *coordinator) server() *campaign.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

func (c *coordinator) closeServer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srv != nil {
		_ = c.srv.Close()
		c.srv = nil
	}
}

// startWorkers starts one worker goroutine per CPU. RunWorker returns
// once the coordinator has been unreachable or out of work for 60
// polls; like a process supervisor, the goroutine starts it again
// until stop.
func (c *coordinator) startWorkers() {
	base := "http://" + c.ln.Addr().String()
	for i := 0; i < c.cfg.workers; i++ {
		name := fmt.Sprintf("w%d", i)
		c.workers.Add(1)
		go func() {
			defer c.workers.Done()
			for !c.stopping.Load() {
				_ = campaign.RunWorker(campaign.WorkerConfig{
					BaseURL:      base,
					Name:         name,
					Client:       &http.Client{Transport: c.transport},
					PollInterval: pollInterval,
					TrialTimeout: 2 * time.Minute,
					Tracer:       teletrace.New(teletrace.Config{Service: name, Store: teletrace.NewStore(0)}),
				})
			}
		}()
	}
}

// stop closes the listener, waits for the workers to give up and for
// the serve loop to end, and closes the server.
func (c *coordinator) stop() {
	c.stopping.Store(true)
	_ = c.hs.Close()
	c.workers.Wait()
	<-c.served
	c.transport.base.CloseIdleConnections()
	c.closeServer()
}

// journalBytes sums the sizes of the pass's journals.
func (c *coordinator) journalBytes() int64 {
	var n int64
	for _, j := range c.journals {
		if fi, err := os.Stat(j); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// step runs step i of epoch n. Steps 0 to cfg.rounds-1 are fresh
// rounds, and step 0 of every epoch after the first starts on a fresh
// coordinator and journal; step cfg.rounds restarts the coordinator on
// the epoch's journal and repeats the epoch's first seed. fresh, when
// non-nil, absorbs the registry deltas of the fresh rounds.
func (c *coordinator) step(n, i int, seeds func() int64, fresh *telemetry.Registry) (roundResult, error) {
	if i < c.cfg.rounds {
		if i == 0 && n > 0 {
			if err := c.swap(false); err != nil {
				return roundResult{}, err
			}
		}
		r, err := c.round(seeds(), false, fresh)
		if i == 0 {
			c.epochSeed = r.seed
		}
		return r, err
	}
	s := c.sp.start("campaign.restart", 0)
	err := c.swap(true)
	c.sp.end(s)
	if err != nil {
		return roundResult{}, err
	}
	return c.round(c.epochSeed, true, nil)
}

// round submits the four sweeps at seed and polls in process until all
// their cells are terminal, then reads each results.csv.
func (c *coordinator) round(seed int64, repeat bool, fresh *telemetry.Registry) (roundResult, error) {
	r := roundResult{seed: seed, repeat: repeat}
	span := c.sp.start("campaign.round", 0)
	defer c.sp.end(span)
	srv := c.server()
	before := c.reg.Snapshot()
	t0 := time.Now()
	params := experiments.Params{Seed: seed}
	ids := make([]string, len(campaignSweeps))
	for i, name := range campaignSweeps {
		st, err := srv.Submit(name, params)
		if err != nil {
			return r, err
		}
		ids[i] = st.ID
		r.cells += st.Total
		r.cached += st.Cached
	}
	seen := 0
	for {
		done, quarantined := 0, 0
		for _, name := range campaignSweeps {
			st, err := srv.Submit(name, params) // idempotent: the status
			if err != nil {
				return r, err
			}
			done += st.Done
			quarantined += st.Quarantined
		}
		now := time.Since(t0)
		for ; seen < done+quarantined; seen++ {
			r.lat = append(r.lat, ms(now))
		}
		r.quarantined = quarantined
		if seen == r.cells {
			break
		}
		if now > time.Minute {
			return r, fmt.Errorf("round seed %d stuck at %d/%d terminal cells", seed, seen, r.cells)
		}
		time.Sleep(time.Millisecond)
	}
	after := c.reg.Snapshot()
	delta := after.Diff(before)
	r.totals = registryTotals(delta)
	if fresh != nil {
		fresh.Absorb(delta)
	}
	h := c.current.Load().(http.Handler)
	for _, id := range ids {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+id+"/results.csv", nil))
		if rec.Code != http.StatusOK {
			return r, fmt.Errorf("results of %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		r.csv = append(r.csv, rec.Body.Bytes())
	}
	return r, nil
}

// countingTransport is the workers' transport: while a traced epoch
// runs, it counts RPCs, empty leases and completion body bytes and
// spans each RPC.
type countingTransport struct {
	base      *http.Transport
	sp        *spans
	recording *atomic.Bool

	rpcs, leases, emptyLeases, completes, completeBytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.recording.Load() {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.sp.add("rpc "+req.URL.Path, 0, t0, time.Now())
	t.rpcs.Add(1)
	switch req.URL.Path {
	case "/v1/lease":
		t.leases.Add(1)
		if err == nil && resp.StatusCode == http.StatusNoContent {
			t.emptyLeases.Add(1)
		}
	case "/v1/complete":
		t.completes.Add(1)
		t.completeBytes.Add(req.ContentLength)
	}
	return resp, err
}
