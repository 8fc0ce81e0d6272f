package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

// The served workload drives a fleet (a coordinator fronting worker daemons)
// through real loopback HTTP with parallel closed-loop clients (each submits
// its next job only when the previous one's artifact is in hand).
//
// The request sequence is the served load the repository already runs in
// CI: cmd/loadgen at -dup 0.9, where 90 % of submissions repeat an earlier
// spec and each spec's submissions form a consecutive block of ten. With two
// closed-loop clients a block plays as one cold job (compute, cache write,
// journal), one duplicate that coalesces onto it while it computes (or reads
// the cache when it arrives after the cold job finished), and eight
// resubmissions that read the finished report from the cache.
const (
	// pollInterval is the clients' job status poll period (and the
	// coordinator's worker poll period). It is part of the workload: small
	// next to a ~10-20 ms unit, so polling shows as its own layer
	// (service.polls_per_job, service.notify_lag_ms) instead of as jitter.
	pollInterval = 2 * time.Millisecond
	// jobShards fans every job out over two shard units.
	jobShards = 2
	// blockLen is the number of submissions of one spec: 1 / (1 - 0.9).
	blockLen = 10
	// blocksPerBatch is the number of specs in a batch, the unit of wall_s
	// and cpu_s.
	blocksPerBatch = 4
	// batchSeconds is the nominal time of one batch. A run plays
	// ceil(--seconds / batchSeconds) measured batches: the job count follows
	// from --seconds alone, never from how fast the code runs, so the
	// latency tail is always the same percentile of the same number of jobs.
	batchSeconds = 0.08
)

// batchSeeds assigns the spec seeds of batch b's jobs: a fresh seed per
// block, drawn from the run's seed and the batch number, repeated blockLen
// times.
func batchSeeds(seed int64, b int) []int64 {
	seeds := make([]int64, blocksPerBatch*blockLen)
	for k := range seeds {
		seeds[k] = 1 + int64(mix(seed, int64(b), int64(k/blockLen))>>24)
	}
	return seeds
}

// measuredBatches is the number of measured batches of a run.
func measuredBatches(seconds float64) int {
	return int(math.Max(1, math.Ceil(seconds/batchSeconds)))
}

// jobRequest is the request of one job: quick table2 on the kibam battery.
func jobRequest(specSeed int64, trace string) service.JobRequest {
	return service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest{Quick: true, Battery: "kibam", Seed: specSeed},
		Shards:     jobShards,
		TraceID:    trace,
	}
}

// stack is a served deployment on loopback: a coordinator fronting worker
// daemons.
type stack struct {
	URL        string
	WorkerURLs []string
	dispatches atomic.Int64 // coordinator unit dispatches

	daemons []*service.Server
	coord   *federation.Coordinator
	servers []*http.Server
	serving sync.WaitGroup
}

// serve exposes h on a fresh loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack starts the served deployment with its state in dir and waits
// until it is ready: the first healthy /healthz with every worker live.
func startStack(ctx context.Context, dir string) (*stack, error) {
	st := &stack{}
	if err := st.start(dir); err != nil {
		st.Close()
		return nil, err
	}
	cl := client.New(st.URL)
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" && h.Fleet != nil && h.Fleet.LiveWorkers == len(st.WorkerURLs) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			st.Close()
			return nil, fmt.Errorf("waiting for a healthy deployment: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (st *stack) start(dir string) error {
	for i := 0; i < parallel; i++ {
		d, err := service.New(service.Config{Workers: 1, Parallel: 1})
		if err != nil {
			return err
		}
		st.daemons = append(st.daemons, d)
		url, err := st.serve(d.Handler())
		if err != nil {
			return err
		}
		st.WorkerURLs = append(st.WorkerURLs, url)
	}
	co, err := federation.New(federation.Config{
		Workers:           st.WorkerURLs,
		HeartbeatInterval: 200 * time.Millisecond,
		PollInterval:      pollInterval,
		CacheDir:          dir,
		OnDispatch:        func(string, experiments.Shard, string) { st.dispatches.Add(1) },
	})
	if err != nil {
		return err
	}
	st.coord = co
	st.URL, err = st.serve(co.Handler())
	return err
}

// Close stops the coordinator, the HTTP servers and the daemons, and waits
// for the servers' goroutines.
func (st *stack) Close() {
	if st.coord != nil {
		st.coord.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	st.serving.Wait()
	for _, d := range st.daemons {
		d.Close()
	}
}

// jobRecord is what one client observed of one job.
type jobRecord struct {
	batch, pos int
	seed       int64
	status     service.JobStatus
	err        error
	sum        [32]byte
	latency    time.Duration // submit until the artifact is in hand and hashed
	submit     time.Duration
	fetch      time.Duration
	polls      int
	notifyLag  time.Duration // server finish until the client saw it (waited jobs)
	waited     bool
	retries429 int
	traced     bool
}

// playJob submits one job, polls it to completion and fetches its artifact.
func playJob(ctx context.Context, cl *client.Client, tr *Tracer, rec *jobRecord) {
	trace := obs.NewTraceID()
	t0 := time.Now()
	root := tr.Begin(trace, "job", 0)
	defer tr.End(root)
	sp := tr.Begin(trace, "service.submit", root)
	st, err := cl.Submit(ctx, jobRequest(rec.seed, trace))
	tr.End(sp)
	rec.submit = time.Since(t0)
	if err == nil && st.State != service.StateDone && st.State != service.StateFailed {
		rec.waited = true
		sp = tr.Begin(trace, "service.wait", root)
		st, err = cl.Wait(ctx, st.ID, pollInterval, func(service.JobStatus) { rec.polls++ })
		seen := time.Now()
		tr.End(sp)
		if err == nil && !st.Finished.IsZero() {
			rec.notifyLag = seen.Sub(st.Finished)
			if !st.Coalesced && !st.Started.IsZero() {
				tr.Add(trace, "service.queue_wait", sp, st.Created, st.Started)
				tr.Add(trace, "service.unit", sp, st.Started, st.Finished)
			}
		}
	}
	rec.status = st
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		rec.err = err
		return
	}
	t1 := time.Now()
	sp = tr.Begin(trace, "service.fetch", root)
	raw, err := cl.ReportArtifact(ctx, st.ID)
	tr.End(sp)
	rec.fetch = time.Since(t1)
	if err != nil {
		rec.err = err
		return
	}
	sp = tr.Begin(trace, "verify.sha256", root)
	rec.sum = sha256.Sum256(raw)
	tr.End(sp)
	rec.latency = time.Since(t0)
}

// batchResult is one batch's wall and CPU time.
type batchResult struct {
	wall, cpu float64
	traced    bool
}

// playBatch runs one batch with the closed-loop clients and returns its
// records in position order.
func playBatch(ctx context.Context, clients []*client.Client, retries []*atomic.Int64, tr *Tracer, seed int64, b int) ([]jobRecord, batchResult) {
	seeds := batchSeeds(seed, b)
	recs := make([]jobRecord, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	c0, t0 := cpuSeconds(), time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(recs) {
					return
				}
				rec := &recs[k]
				rec.batch, rec.pos, rec.seed, rec.traced = b, k, seeds[k], tr != nil
				r0 := retries[c].Load()
				playJob(ctx, clients[c], tr, rec)
				rec.retries429 = int(retries[c].Load() - r0)
			}
		}(c)
	}
	wg.Wait()
	return recs, batchResult{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, traced: tr != nil}
}

// scrape reads a server's /metrics.
func scrape(ctx context.Context, url string) ([]obs.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(buf)
}

// value reads one sample (0 when absent).
func value(samples []obs.Sample, name string, labels ...string) float64 {
	s, _ := obs.Find(samples, name, labels...)
	return s.Value
}

// runServed measures a served workload.
func runServed(ctx context.Context, o options) (*outcome, error) {
	setup, err := measureSetup(ctx, o)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{"setup_s": median(setup)}}
	out.notef("setup_s samples %v", setup)
	dir, err := os.MkdirTemp(o.work, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := startStack(ctx, dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	nb := measuredBatches(o.seconds)
	out.notef("%d batches of %d specs x %d submissions; %d clients, %d worker slots, poll %v",
		nb, blocksPerBatch, blockLen, parallel, parallel, pollInterval)
	clients := make([]*client.Client, parallel)
	retries := make([]*atomic.Int64, parallel)
	for i := range clients {
		clients[i] = client.New(st.URL)
		clients[i].MaxRetries = 8
		clients[i].RetryBaseDelay = 5 * time.Millisecond
		n := new(atomic.Int64)
		retries[i] = n
		clients[i].OnRetry = func(status, _ int, _ time.Duration) {
			if status == http.StatusTooManyRequests {
				n.Add(1)
			}
		}
	}
	// Batch 0 warms connections, caches and the runtime: its jobs are
	// verified but not timed.
	warm, _ := playBatch(ctx, clients, retries, nil, o.seed, 0)

	var tr *Tracer
	if o.trace {
		tr = NewTracer()
	}
	front0, err := scrape(ctx, st.URL)
	if err != nil {
		return nil, err
	}
	workers0, err := scrapeAll(ctx, st.WorkerURLs)
	if err != nil {
		return nil, err
	}
	sim0 := obs.Sim.Snapshot()
	dispatch0 := st.dispatches.Load()
	a0, gc0 := goCounters()
	var recs []jobRecord
	var batches []batchResult
	for b := 1; b <= nb; b++ {
		// A traced run alternates traced and untraced batches, so the
		// tracing overhead is measured under the same load.
		var btr *Tracer
		if o.trace && b%2 == 1 {
			btr = tr
		}
		r, br := playBatch(ctx, clients, retries, btr, o.seed, b)
		recs = append(recs, r...)
		batches = append(batches, br)
	}
	rss := peakRSSMB()
	a1, gc1 := goCounters()
	sim := obs.Sim.Snapshot().Sub(sim0)
	dispatches := st.dispatches.Load() - dispatch0
	front1, err := scrape(ctx, st.URL)
	if err != nil {
		return nil, err
	}
	workers1, err := scrapeAll(ctx, st.WorkerURLs)
	if err != nil {
		return nil, err
	}

	encodeS, bytesMean := verifyServed(ctx, append(warm, recs...), out)
	var walls, cpus, lats []float64
	for _, b := range batches {
		if !b.traced {
			walls = append(walls, b.wall)
			cpus = append(cpus, b.cpu)
		}
	}
	for _, r := range recs {
		if r.err == nil && !r.traced {
			lats = append(lats, r.latency.Seconds()*1e3)
		}
	}
	out.notef("%d jobs (%d warm-up, %d measured) verified against experiments.Run", len(warm)+len(recs), len(warm), len(recs))
	if !o.trace {
		tailV, level := tail(lats)
		out.values["wall_s"] = median(walls)
		out.values["cpu_s"] = median(cpus)
		out.values["latency_p50_ms"] = median(lats)
		out.values["latency_tail_ms"] = tailV
		out.values["peak_rss_mb"] = rss
		out.notef("latency_tail_ms is p%g of %d samples", level, len(lats))
		return out, nil
	}

	// Per-layer metrics come from the traced batches' jobs.
	var submit, queue, unit, lag, fetch, polls []float64
	var computed, coalesced, cached, retried int
	var tracedWalls []float64
	for _, b := range batches {
		if b.traced {
			tracedWalls = append(tracedWalls, b.wall)
		}
	}
	for _, r := range recs {
		if !r.traced || r.err != nil {
			continue
		}
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		polls = append(polls, float64(r.polls))
		retried += r.retries429
		switch {
		case r.status.Cached:
			cached++
		case r.status.Coalesced:
			coalesced++
		default:
			computed++
			queue = append(queue, ms(r.status.Started.Sub(r.status.Created)))
			unit = append(unit, ms(r.status.Finished.Sub(r.status.Started)))
		}
		if r.waited {
			lag = append(lag, ms(r.notifyLag))
		}
	}
	ntb := float64(len(tracedWalls))
	perBatch := func(total float64) float64 { return total / float64(nb) }
	v := out.values
	v["service.submit_ms"] = median(submit)
	v["service.queue_wait_ms"] = median(queue)
	v["service.queue_wait_tail_ms"], _ = tail(queue)
	v["service.unit_ms"] = median(unit)
	v["service.notify_lag_ms"] = median(lag)
	v["service.fetch_ms"] = median(fetch)
	v["service.polls_per_job"] = mean(polls)
	v["service.computed"] = float64(computed) / ntb
	v["service.coalesced"] = float64(coalesced) / ntb
	v["service.cache_hits"] = float64(cached) / ntb
	v["service.dedup_ratio"] = perUnit(float64(coalesced+cached), float64(computed+coalesced+cached))
	v["service.retries_429"] = float64(retried) / ntb
	v["service.queue_depth_peak"] = value(front1, "battsched_queue_depth_peak")
	v["battery.sims"] = perBatch(float64(sim.BatteryAnalytic + sim.BatteryStepped))
	v["battery.analytic_sims"] = perBatch(float64(sim.BatteryAnalytic))
	v["battery.stepped_sims"] = perBatch(float64(sim.BatteryStepped))
	v["core.runs"] = perBatch(float64(sim.EngineRuns))
	v["experiments.encode_s"] = encodeS
	v["experiments.artifact_bytes"] = bytesMean
	v["go.alloc_mb"] = perBatch(float64(a1-a0) / (1 << 20))
	v["go.gc_cycles"] = perBatch(float64(gc1 - gc0))
	re := value(front1, "battsched_fleet_expired_redispatches_total") - value(front0, "battsched_fleet_expired_redispatches_total")
	spec := value(front1, "battsched_fleet_speculative_dispatches_total") - value(front0, "battsched_fleet_speculative_dispatches_total")
	v["federation.dispatches"] = perBatch(float64(dispatches))
	v["federation.redispatches"] = perBatch(re)
	v["federation.speculative_dispatches"] = perBatch(spec)
	v["federation.wasted_dispatch_frac"] = perUnit(re+spec, float64(dispatches))
	v["federation.dispatch_overhead_ms"] = meanUnitMs([][]obs.Sample{front0}, [][]obs.Sample{front1}) - meanUnitMs(workers0, workers1)

	spans := tr.Spans()
	busy := LayerBusy(spans)
	rootTotal := busy["job"]
	covered := 0.0
	for layer, s := range busy {
		if layer != "job" {
			covered += s
		}
	}
	v["trace.coverage"] = perUnit(covered, rootTotal)
	v["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	path := tracePath(o)
	if err := WriteSpans(path, spans); err != nil {
		return nil, err
	}
	out.notef("%d traced batches; %d spans written to %s", len(tracedWalls), len(spans), path)
	return out, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// scrapeAll reads the /metrics of every URL.
func scrapeAll(ctx context.Context, urls []string) ([][]obs.Sample, error) {
	out := make([][]obs.Sample, len(urls))
	for i, u := range urls {
		s, err := scrape(ctx, u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// meanUnitMs is the mean unit duration across servers between two scrapes,
// from the battsched_unit_duration_seconds histogram.
func meanUnitMs(before, after [][]obs.Sample) float64 {
	var sum, count float64
	for i := range after {
		sum += value(after[i], "battsched_unit_duration_seconds_sum") - value(before[i], "battsched_unit_duration_seconds_sum")
		count += value(after[i], "battsched_unit_duration_seconds_count") - value(before[i], "battsched_unit_duration_seconds_count")
	}
	return perUnit(sum*1e3, count)
}

// verifyServed checks every served artifact against an in-process
// experiments.Run of the same spec, byte for byte (by SHA-256), counting each
// job as one attempt and each failed job or mismatching artifact as a
// failure. It returns the mean WriteArtifact time and artifact size of the
// reference encodings.
func verifyServed(ctx context.Context, recs []jobRecord, out *outcome) (encodeS, size float64) {
	bySeed := map[int64][]*jobRecord{}
	var seeds []int64
	for i := range recs {
		r := &recs[i]
		if _, ok := bySeed[r.seed]; !ok {
			seeds = append(seeds, r.seed)
		}
		bySeed[r.seed] = append(bySeed[r.seed], r)
	}
	type ref struct {
		sum    [32]byte
		size   int
		encode time.Duration
		err    error
	}
	refs := make([]ref, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				req := jobRequest(seeds[i], "")
				spec := req.Spec.Spec()
				spec.Parallel = 1
				rep, err := experiments.Run(ctx, req.Experiment, spec)
				if err != nil {
					refs[i].err = err
					continue
				}
				t0 := time.Now()
				raw, err := artifact(rep)
				refs[i] = ref{sum: sha256.Sum256(raw), size: len(raw), encode: time.Since(t0), err: err}
			}
		}()
	}
	wg.Wait()
	var encodes, sizes []float64
	for i, seed := range seeds {
		for _, r := range bySeed[seed] {
			out.attempted++
			var err error
			switch {
			case r.err != nil:
				err = r.err
			case refs[i].err != nil:
				err = fmt.Errorf("reference run: %w", refs[i].err)
			case r.sum != refs[i].sum:
				err = errors.New("artifact differs from experiments.Run")
			}
			if err != nil {
				out.failed++
				out.failf("job at batch %d position %d (spec seed %d): %v", r.batch, r.pos, seed, err)
			}
		}
		encodes = append(encodes, refs[i].encode.Seconds())
		sizes = append(sizes, float64(refs[i].size))
	}
	return mean(encodes), mean(sizes)
}
