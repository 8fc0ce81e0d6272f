// Package federation implements the fleet coordinator of the experiment
// service: a daemon that serves the same /v1 API as a single battschedd
// worker but executes nothing itself. It is the job front end of
// internal/service (service.Server: validation, the cache, coalescing,
// admission, the journal, the job state machine and the HTTP API) over an
// executor of its own, the fleet, which keeps a registry of remote
// battschedd workers — registered at start or over POST /v1/workers,
// health-checked by periodic heartbeat against their /healthz — and
// dispatches every admitted job's shard units to workers under time-bounded
// leases through the typed client.
//
// Each unit rides the worker's own machinery: it is submitted as a
// single-shard job (JobRequest.Shard "i/n") content-addressed by the
// partial's hash, so a re-dispatch of a unit another worker already computed
// is a cache hit, and a re-dispatch of a unit the same worker is still
// computing coalesces onto the in-flight run. That idempotence is what makes
// the coordinator's failure handling simple: leases that expire (worker died
// or became unreachable) re-queue their units, stragglers (unit runtime
// beyond StragglerFactor × the fleet's mean unit time) get a speculative
// duplicate on another worker, the first completed copy wins, and duplicates
// are discarded — every copy of a shard partial is bit-exact.
//
// Shard partials fold into the job's report incrementally as they arrive
// (experiments.ReportMerger), so the merged artifact is ready the moment the
// last unit lands and is byte-identical to the local `cmd/experiments run -o`
// file. Unit leases are journaled beside the front end's accept records; a
// restarted coordinator resumes dispatch from the journal, folding
// already-cached partials instead of re-running them and preferring each
// unit's journaled worker (where the result is likely cached or still in
// flight). While draining, the fleet keeps dispatching accepted units until
// no job is live.
package federation

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
	"battsched/internal/service/journal"
)

// Config configures a Coordinator. The zero value of every field selects a
// sensible default; Workers may be empty when workers register over HTTP.
type Config struct {
	// Workers are the base URLs of the initial worker fleet
	// ("http://127.0.0.1:8345"). More can register over POST /v1/workers.
	Workers []string
	// HeartbeatInterval is the /healthz probe period per worker (<= 0
	// selects 1 s).
	HeartbeatInterval time.Duration
	// DeadAfter is the number of consecutive failed heartbeats after which a
	// worker is considered dead and its leases expire immediately (<= 0
	// selects 3).
	DeadAfter int
	// LeaseDuration bounds each dispatched unit's lease (<= 0 selects 15 s).
	// Successful status polls renew the lease, so a healthy long-running
	// unit keeps its lease alive; the lease only expires when the worker
	// stops answering.
	LeaseDuration time.Duration
	// PollInterval is the remote job status poll period (<= 0 selects
	// 100 ms).
	PollInterval time.Duration
	// StragglerFactor marks a unit a straggler once its runtime exceeds this
	// multiple of the fleet's mean unit time (EWMA); stragglers get one
	// speculative duplicate dispatch on another worker (<= 0 selects 3).
	StragglerFactor float64
	// StragglerMin is the minimum runtime before a unit can be called a
	// straggler, so short jobs don't speculate on scheduling noise (<= 0
	// selects 2 s).
	StragglerMin time.Duration
	// MaxAttempts bounds dispatch attempts per unit before the job fails
	// (<= 0 selects 3; speculative duplicates count).
	MaxAttempts int
	// CacheDir is the coordinator's content-addressed artifact store: full
	// merged artifacts and shard partials both live here, and a non-empty
	// CacheDir also enables the job journal (accepted jobs + unit leases)
	// that makes restart resume dispatch. "" keeps everything memory-only.
	CacheDir string
	// CacheEntries bounds the cache's in-memory LRU tier (<= 0 selects 64).
	CacheEntries int
	// JournalFsync syncs every journal record to stable storage (see
	// service.Config.JournalFsync).
	JournalFsync bool
	// MaxJobs bounds the job map like service.Config.MaxJobs (<= 0 selects
	// 1024).
	MaxJobs int
	// QueueCapacity bounds the number of shard units queued or leased at
	// once (<= 0 selects 256); submissions beyond it reject with 429 and a
	// Retry-After estimate.
	QueueCapacity int
	// OnDispatch, when non-nil, observes every unit dispatch (job ID, the
	// unit's shard, the worker URL) just before the unit is submitted to the
	// worker. Tests use it to count dispatches and to gate execution; leave
	// nil in production.
	OnDispatch func(jobID string, shard experiments.Shard, worker string)
}

func (cfg *Config) fillDefaults() {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	if cfg.StragglerMin <= 0 {
		cfg.StragglerMin = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 256
	}
}

// worker is one registered battschedd.
type worker struct {
	url        string
	sub        *client.Client // submits and polls: a couple of retries absorb restarts
	probe      *client.Client // heartbeats: fail fast, the heartbeat loop is the retry
	live       bool
	fails      int     // consecutive failed heartbeats
	slots      int     // the worker's pool size, from its last health snapshot
	leased     int     // units this coordinator currently leases to it
	meanUnitNs float64 // per-worker EWMA of dispatch-to-delivery unit time
}

// fjob is the fleet's dispatch state of one started job.
type fjob struct {
	units  []*funit
	merger *experiments.ReportMerger // nil for unsharded jobs
}

// funit is one dispatchable shard unit of a job.
type funit struct {
	*service.Unit
	queued   bool // currently waiting in the dispatch queue
	attempts int  // dispatches so far (speculative duplicates count)
	leases   []*lease
	prefer   string // journaled worker URL to prefer on restart replay
}

// finished reports that a partial was delivered (the first completion won).
func (u *funit) finished() bool { return u.State == service.StateDone }

// lease is one outstanding dispatch of a unit to a worker.
type lease struct {
	unit      *funit
	w         *worker
	remote    string // the worker's job ID, once known
	started   time.Time
	expires   time.Time
	cancelled bool // expired or superseded; the poll goroutine stops
}

// fleet is the coordinator's executor: it leases the units the front end
// admits to remote workers. Its state is guarded by mu, the front end's
// lock.
type fleet struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	cond   *sync.Cond // signalled when the queue or fleet capacity changes

	workers    map[string]*worker
	jobs       map[*service.Job]*fjob // started, non-terminal jobs
	queue      []*funit               // FIFO dispatch queue
	queuedPeak int                    // high-water mark of len(queue)
	meanUnit   time.Duration          // fleet-wide mean unit time: the straggler baseline

	reg    *obs.Registry // the front end's registry, for per-worker series
	events *obs.EventLog // the front end's event log, for worker records
	met    fleetMetrics
}

// Coordinator is the federation daemon: the service front end over the
// fleet. Construct with New, expose with Handler, stop with Shutdown (drain)
// or Close (immediate).
type Coordinator struct {
	*service.Server
	fleet *fleet
}

// New constructs a coordinator, replays its journal (when CacheDir is set)
// and starts the heartbeat, dispatcher and lease-monitor loops.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	f := &fleet{
		cfg:     cfg,
		workers: make(map[string]*worker),
		jobs:    make(map[*service.Job]*fjob),
	}
	f.cond = sync.NewCond(&f.mu)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	srv, err := service.NewServer(service.FrontConfig{
		QueueCapacity: cfg.QueueCapacity,
		MaxJobs:       cfg.MaxJobs,
		CacheDir:      cfg.CacheDir,
		CacheEntries:  cfg.CacheEntries,
		JournalFsync:  cfg.JournalFsync,
	}, &f.mu, f)
	if err != nil {
		f.cancel()
		return nil, err
	}
	f.reg, f.events = srv.Metrics(), srv.Events()
	f.met = newFleetMetrics(f.reg)
	f.registerGauges()
	for _, url := range cfg.Workers {
		f.addWorker(url)
	}
	f.wg.Add(3)
	go f.heartbeatLoop()
	go f.dispatcher()
	go f.leaseMonitor()
	return &Coordinator{Server: srv, fleet: f}, nil
}

// AddWorker registers one worker URL (idempotent). The next heartbeat
// round-trip makes it live and dispatchable.
func (co *Coordinator) AddWorker(url string) { co.fleet.addWorker(url) }

func (f *fleet) addWorker(url string) {
	// Per-worker gauges register BEFORE f.mu is taken: registration takes the
	// registry write lock, and a concurrent /metrics render holds the registry
	// read lock while its callbacks take f.mu — registering under f.mu would
	// be a lock-order inversion (see the obs locking contract).
	f.registerWorkerMetrics(url)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.workers[url]; ok {
		return
	}
	sub := client.New(url)
	sub.MaxRetries = 2
	sub.RetryBaseDelay = 100 * time.Millisecond
	f.workers[url] = &worker{url: url, sub: sub, probe: client.New(url)}
	f.cond.Broadcast()
}

// WorkerStatus is one registry entry of GET /v1/workers.
type WorkerStatus struct {
	URL    string `json:"url"`
	Live   bool   `json:"live"`
	Slots  int    `json:"slots"`
	Leased int    `json:"leased"`
}

// Workers snapshots the registry, sorted by URL.
func (co *Coordinator) Workers() []WorkerStatus { return co.fleet.workerStatus() }

func (f *fleet) workerStatus() []WorkerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerStatus, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerStatus{URL: w.url, Live: w.live, Slots: w.slots, Leased: w.leased})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Check rejects shard-unit jobs: they are the coordinator's output, not its
// input, and a coordinator fronting coordinators is not supported.
func (f *fleet) Check(req service.JobRequest, _ *experiments.Spec) error {
	if req.Shard != "" {
		return fmt.Errorf("%w: the coordinator does not accept shard-unit jobs", experiments.ErrBadConfig)
	}
	return nil
}

// Start queues a job's units for dispatch. On restart replay (rec non-nil),
// partials the previous coordinator already cached fold without a dispatch,
// and the rest prefer the worker their journaled lease named.
func (f *fleet) Start(j *service.Job, rec *journal.Accept) {
	fj := &fjob{units: make([]*funit, len(j.Units))}
	for i, u := range j.Units {
		fj.units[i] = &funit{Unit: u}
	}
	if len(j.Units) > 1 {
		fj.merger, _ = experiments.NewReportMerger(len(j.Units))
	}
	f.jobs[j] = fj
	prefer := make(map[string]string)
	if rec != nil {
		for _, l := range rec.Leases {
			prefer[l.Unit] = l.Worker
		}
	}
	for _, u := range fj.units {
		if rec != nil && u.Shard.Enabled() {
			if raw, ok := j.CacheGet(experiments.ShardSpecHash(j.Experiment, j.Spec, u.Shard)); ok {
				if rep, err := decodePartial(raw); err == nil && f.foldLocked(fj, u, rep) == nil {
					continue
				}
			}
		}
		u.prefer = prefer[u.Shard.String()]
		f.enqueueLocked(u)
	}
}

// Release cancels every outstanding lease of a terminal job's units.
func (f *fleet) Release(j *service.Job) {
	fj := f.jobs[j]
	if fj == nil {
		return
	}
	delete(f.jobs, j)
	for _, u := range fj.units {
		u.queued = false
		for _, l := range u.leases {
			f.releaseLocked(l)
		}
		u.leases = nil
	}
}

func (f *fleet) Load() service.Load {
	backlog := f.backlogLocked()
	return service.Load{Queued: len(f.queue), QueuedPeak: f.queuedPeak, InFlight: f.leasedLocked(),
		Slots: f.liveSlotsLocked(), Pending: backlog, Backlog: backlog}
}

// Idle reports that no job is live: a draining coordinator keeps dispatching
// accepted units until then.
func (f *fleet) Idle() bool { return len(f.jobs) == 0 }

// Stop cancels the loops and every lease goroutine and waits for them.
func (f *fleet) Stop() {
	f.cancel()
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// FillHealth adds the fleet section. Lifetime counters are read back from the
// metrics registry, so /healthz and /metrics cannot disagree (pinned by
// TestFleetHealthMatchesMetrics).
func (f *fleet) FillHealth(h *service.Health) {
	fl := &service.FleetHealth{
		Workers:               len(f.workers),
		Slots:                 f.liveSlotsLocked(),
		QueuedUnits:           len(f.queue),
		LeasedUnits:           f.leasedLocked(),
		ExpiredRedispatches:   int(f.met.expiredRe.Value()),
		SpeculativeDispatches: int(f.met.speculative.Value()),
		MeanUnitMs:            h.MeanUnitMs,
	}
	for _, w := range f.workers {
		if w.live {
			fl.LiveWorkers++
			fl.FreeSlots += max(w.slots-w.leased, 0)
		}
	}
	h.Fleet = fl
}

// backlogLocked counts units queued or under lease. Callers hold f.mu.
func (f *fleet) backlogLocked() int {
	n := 0
	for _, fj := range f.jobs {
		for _, u := range fj.units {
			if !u.finished() && (u.queued || len(u.leases) > 0 || u.State == service.StateQueued) {
				n++
			}
		}
	}
	return n
}

// leasedLocked counts units currently under lease. Callers hold f.mu.
func (f *fleet) leasedLocked() int {
	n := 0
	for _, w := range f.workers {
		n += w.leased
	}
	return n
}

// liveSlotsLocked counts execution slots across live workers. Callers hold
// f.mu.
func (f *fleet) liveSlotsLocked() int {
	n := 0
	for _, w := range f.workers {
		if w.live {
			n += w.slots
		}
	}
	return n
}

// enqueueLocked appends a unit to the dispatch queue (idempotent per unit)
// and wakes the dispatcher. Callers hold f.mu.
func (f *fleet) enqueueLocked(u *funit) {
	if u.queued || u.finished() {
		return
	}
	u.queued = true
	f.queue = append(f.queue, u)
	f.queuedPeak = max(f.queuedPeak, len(f.queue))
	f.cond.Broadcast()
}

// decodePartial decodes a single-report artifact.
func decodePartial(raw []byte) (*experiments.Report, error) {
	reports, err := experiments.ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if len(reports) != 1 {
		return nil, fmt.Errorf("federation: artifact holds %d reports, want 1", len(reports))
	}
	return reports[0], nil
}

// journalLeaseLocked journals one unit lease. Callers hold f.mu.
func journalLeaseLocked(l *lease) {
	l.unit.Job.JournalLease(journal.Lease{
		Unit: l.unit.Shard.String(), Worker: l.w.url, Remote: l.remote, Expires: l.expires,
	})
}

// releaseLocked cancels one lease and returns its slot. Callers hold f.mu.
func (f *fleet) releaseLocked(l *lease) {
	if l.cancelled {
		return
	}
	l.cancelled = true
	l.w.leased--
	f.cond.Broadcast()
}
