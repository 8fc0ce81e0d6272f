// Package service implements the experiment daemon behind cmd/battschedd: a
// long-running HTTP server over the experiment registry with an asynchronous
// bounded job queue, server-side shard fan-out, and a content-addressed
// report cache.
//
// The package is split into a job front end and the executors behind it.
// The front end (Server, front.go, http.go, metrics.go) owns everything a
// client sees: it validates a submitted JobRequest, addresses it by its
// canonical spec hash (experiments.ShardSpecHash), answers a cached hash at
// once (JobStatus.Cached), coalesces a submission whose hash matches a job
// still queued or running onto that leader (JobStatus.Coalesced), bounds
// admission (ErrQueueFull carrying a Retry-After estimate, which the HTTP
// layer maps to 429), journals accepted jobs to a JSONL write-ahead log
// (internal/service/journal) and replays them on start, runs the job state
// machine, renders and caches the finished artifact, drains on Shutdown, and
// serves the /v1 API and its metrics.
//
// An Executor runs the shard units the front end admits — one unit for an
// unsharded run, or Shards independent units each executing its
// RunOptions.Shard slice. New builds the worker daemon, whose executor is a
// local worker pool draining a FIFO unit queue in-process and recombining a
// job's partials with experiments.MergeReports in shard order; its drain
// lets in-flight units finish and leaves queued units journaled for the next
// daemon. The federation coordinator (internal/federation) is the same front
// end over an executor that leases units to remote worker daemons.
//
// Byte-identity to the CLI is the correctness contract: per-set experiments
// merge shard partials bit-for-bit (sample replay), so their served artifacts
// equal the local unsharded `run -o` artifact byte-for-byte at any shard
// count; the scenario grid's chunk-merged cells carry the documented Welford
// reassociation bound instead, so its sharded artifacts equal the equivalent
// local shard+merge pipeline.
package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service/journal"
)

// Config tunes one daemon instance. The zero value is usable: two workers, a
// 64-unit queue, a memory-only 64-entry cache, full per-run parallelism.
type Config struct {
	// Workers is the worker-pool size: how many shard units execute
	// concurrently (<= 0 selects 2).
	Workers int
	// QueueCapacity bounds the FIFO queue in shard units (<= 0 selects 64).
	// Submissions whose units do not fit are rejected with ErrQueueFull.
	QueueCapacity int
	// Parallel is the RunOptions.Parallel passed to every unit's run: the
	// job-grid worker count inside one experiment run (0 selects all cores).
	// With several service workers, bound this to avoid oversubscription.
	Parallel int
	// CacheDir is the on-disk content-addressed report store; "" keeps the
	// cache memory-only. A non-empty CacheDir also enables the durable job
	// journal (journal.jsonl in the same directory): accepted jobs are
	// logged before they enqueue and replayed on daemon start, so a restart
	// resumes accepted-but-unfinished work under the original job IDs.
	CacheDir string
	// CacheEntries bounds the cache's in-memory LRU tier (<= 0 selects 64).
	CacheEntries int
	// JournalFsync syncs every journal record to stable storage before the
	// append returns, upgrading the journal from process-kill durability (the
	// default: records ride the OS page cache) to power-loss durability. See
	// the -journal-fsync flag for the measured per-record cost.
	JournalFsync bool
	// MaxJobs bounds the job map (<= 0 selects 1024): when a submission
	// would exceed it, the oldest *terminal* jobs (done or failed, in
	// completion order) are evicted so the long-running daemon's memory stays
	// bounded; their IDs then answer 404. Queued and running jobs are never
	// evicted. Finished artifacts stay retrievable by resubmitting the spec —
	// the report cache, not the job map, is the artifact store.
	MaxJobs int
	// FaultHook, when non-nil, runs before every shard unit's execution with
	// the daemon context; a non-nil return fails the unit with that error,
	// and blocking (on ctx or an external gate) injects delay. Fault
	// injection only — tests and load harnesses use it to drive retry,
	// coalescing and kill/restart paths deterministically; leave nil in
	// production.
	FaultHook func(ctx context.Context, experiment string, shard experiments.Shard) error
}

// pool is the worker daemon's executor: a FIFO queue of shard units drained
// in-process by a fixed pool of workers.
type pool struct {
	cfg    Config
	s      *Server
	mu     sync.Mutex // the front end's lock
	cond   *sync.Cond // signalled when a unit is queued or the pool stops
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	queue    []*Unit
	peak     int // high-water mark of len(queue)
	inFlight int // units executing
	stopped  bool
	parts    map[*Job][]*experiments.Report // finished partials, by unit position
}

// New constructs a daemon, replays the job journal (when CacheDir is set)
// and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	p := &pool{cfg: cfg, parts: make(map[*Job][]*experiments.Report)}
	p.cond = sync.NewCond(&p.mu)
	p.ctx, p.cancel = context.WithCancel(context.Background())
	s, err := NewServer(FrontConfig{
		QueueCapacity: cfg.QueueCapacity,
		MaxJobs:       cfg.MaxJobs,
		CacheDir:      cfg.CacheDir,
		CacheEntries:  cfg.CacheEntries,
		JournalFsync:  cfg.JournalFsync,
	}, &p.mu, p)
	if err != nil {
		p.cancel()
		return nil, err
	}
	p.s = s
	// Only this executor runs simulations, so only the daemon exports the
	// process-wide engine and battery counters.
	obs.RegisterSim(s.metrics, &obs.Sim)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return s, nil
}

// Check sets the daemon's per-run parallelism on the spec.
func (p *pool) Check(_ JobRequest, spec *experiments.Spec) error {
	spec.Parallel = p.cfg.Parallel
	return nil
}

// Start queues every unit of a newly admitted job. The queue is not bounded
// here: the front end's admission bound already charged the units (and a
// replayed backlog is admitted whole, even beyond the bound).
func (p *pool) Start(j *Job, _ *journal.Accept) {
	p.parts[j] = make([]*experiments.Report, len(j.Units))
	for _, u := range j.Units {
		j.Emit(obs.Event{Event: obs.EventUnitQueued, Unit: u.Shard.String()})
		p.queue = append(p.queue, u)
	}
	p.peak = max(p.peak, len(p.queue))
	p.cond.Broadcast()
}

// Release drops a terminal job's partials. Its units still queued are
// skipped when a worker reaches them.
func (p *pool) Release(j *Job) { delete(p.parts, j) }

func (p *pool) Load() Load {
	n := len(p.queue)
	return Load{Queued: n, QueuedPeak: p.peak, InFlight: p.inFlight, Slots: p.cfg.Workers,
		Pending: n, Backlog: n + p.inFlight}
}

// Idle reports that no unit is executing: queued units stay unstarted while
// the daemon drains, and their journal records survive for the next daemon.
func (p *pool) Idle() bool { return p.inFlight == 0 }

// Stop cancels in-flight runs and waits for the workers to exit.
func (p *pool) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.cancel()
	p.wg.Wait()
}

func (p *pool) Routes(*http.ServeMux) {}

func (p *pool) FillHealth(*Health) {}

// worker runs queued units in FIFO order until the pool stops. It starts
// nothing while the daemon drains.
func (p *pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.stopped && (p.s.draining || len(p.queue) == 0) {
			p.cond.Wait()
		}
		if p.stopped {
			return
		}
		u := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if u.Job.Terminal() {
			// A sibling shard already failed the job: don't burn a worker on
			// a result nobody will merge.
			u.State = StateFailed
			continue
		}
		p.runLocked(u)
	}
}

// runLocked executes one shard unit, releasing the lock for the run, and
// finalises its job when it is the last. Callers hold p.mu.
func (p *pool) runLocked(u *Unit) {
	j := u.Job
	p.inFlight++
	u.State = StateRunning
	j.Emit(obs.Event{Event: obs.EventUnitStarted, Unit: u.Shard.String()})
	j.MarkRunning(time.Now())
	p.mu.Unlock()

	start := time.Now()
	var rep *experiments.Report
	var err error
	if hook := p.cfg.FaultHook; hook != nil {
		err = hook(p.ctx, j.Experiment, u.Shard)
	}
	if err == nil {
		spec := j.Spec
		spec.Shard = u.Shard
		spec.Progress = func(done, total int) {
			p.mu.Lock()
			u.Done, u.Total = done, total
			p.mu.Unlock()
		}
		rep, err = experiments.Run(p.ctx, j.Experiment, spec)
	}
	dur := time.Since(start)

	p.mu.Lock()
	p.inFlight--
	j.ObserveUnit(dur)
	if err != nil {
		u.State = StateFailed
		j.Emit(obs.Event{Event: obs.EventUnitFailed, Unit: u.Shard.String(), Detail: err.Error()})
		if p.ctx.Err() != nil {
			// Cancelled by Close/expired drain: abandon without journaling
			// completion, so a restart resumes the job.
			p.s.completeLocked(j, StateFailed, shutdownMsg, false)
		} else {
			j.Fail(err.Error())
		}
		return
	}
	j.Emit(obs.Event{Event: obs.EventUnitFinished, Unit: u.Shard.String(),
		Detail: dur.Round(time.Millisecond).String()})
	if j.Terminal() {
		u.State = StateDone // a sibling failed the job meanwhile
		return
	}
	parts := p.parts[j]
	if len(parts) > 1 {
		parts[u.Shard.Index] = rep
	} else {
		parts[0] = rep
	}
	if !j.UnitDone(u) {
		return
	}
	// Partials merge in shard order, so the artifact does not depend on the
	// order units finished in.
	if len(parts) > 1 {
		if rep, err = experiments.MergeReports(parts); err != nil {
			j.Fail(err.Error())
			return
		}
	}
	j.Finish(rep)
}
