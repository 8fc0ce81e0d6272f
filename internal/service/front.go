package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service/cache"
	"battsched/internal/service/journal"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull reports that admitting the job's shard units would exceed
	// the queue bound. The concrete error carries a Retry-After estimate;
	// the HTTP layer maps it to 429 with a Retry-After header.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrUnknownJob reports a job ID this daemon never issued.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobNotFinished reports a report request for a job still in flight.
	ErrJobNotFinished = errors.New("service: job not finished")
	// ErrDraining reports a submission to a daemon that is shutting down.
	ErrDraining = errors.New("service: daemon is draining")
)

// shutdownMsg is the terminal failure message of jobs abandoned by daemon
// shutdown. Their journal accept records are retained, so a restart over the
// same CacheDir resumes them instead of reporting zombies.
const shutdownMsg = "daemon shut down before the job finished"

// queueFullError is the concrete ErrQueueFull: it carries the backpressure
// hint the HTTP layer surfaces as a Retry-After header.
type queueFullError struct {
	units, capacity, pending int
	retryAfter               time.Duration
}

func (e *queueFullError) Error() string {
	return fmt.Sprintf("%v: %d unit(s) would exceed the %d-unit bound (%d pending); retry in ~%s",
		ErrQueueFull, e.units, e.capacity, e.pending, e.retryAfter.Round(time.Second))
}

func (e *queueFullError) Unwrap() error { return ErrQueueFull }

// Executor runs the shard units a Server's front end admits. The front end
// calls Start, Release, Load, Idle and FillHealth with the lock passed to
// NewServer held, and the executor guards its own state with the same lock.
type Executor interface {
	// Check applies the executor's own admission rules to a request that
	// passed the front end's validation, and may complete spec with
	// execution-only knobs. It may run without the lock, so it reads no
	// mutable executor state.
	Check(req JobRequest, spec *experiments.Spec) error
	// Start takes over a newly admitted job whose Units are all queued. rec
	// is the job's journal record when the job is replayed on restart, nil
	// for a live submission.
	Start(j *Job, rec *journal.Accept)
	// Release tells the executor that a started job reached a terminal
	// state, so it can drop whatever it still holds for the job's units.
	Release(j *Job)
	// Load reports the executor's unit counts.
	Load() Load
	// Idle reports whether a draining front end may stop the executor.
	Idle() bool
	// Stop stops the executor's goroutines and waits for them.
	Stop()
	// Routes adds the executor's own endpoints to the HTTP API.
	Routes(mux *http.ServeMux)
	// FillHealth adds the executor's own section to a health snapshot.
	FillHealth(h *Health)
}

// Load is an executor's unit counts, as Health, the gauges, the queue bound
// and the Retry-After estimate read them.
type Load struct {
	// Queued is the number of units waiting for an execution slot, and
	// QueuedPeak its high-water mark.
	Queued, QueuedPeak int
	// InFlight is the number of units executing.
	InFlight int
	// Slots is the number of execution slots.
	Slots int
	// Pending is the number of units charged against the queue bound.
	Pending int
	// Backlog is the number of units a new submission waits behind, the
	// numerator of the Retry-After estimate.
	Backlog int
}

// FrontConfig configures the job front end NewServer builds; Config and the
// federation coordinator's configuration fill it.
type FrontConfig struct {
	// QueueCapacity bounds Load.Pending + the units of a new submission.
	QueueCapacity int
	// MaxJobs bounds the job map (<= 0 selects 1024); see Config.MaxJobs.
	MaxJobs int
	// CacheDir, CacheEntries and JournalFsync configure the report cache,
	// the job journal and the event log; see Config.
	CacheDir     string
	CacheEntries int
	JournalFsync bool
}

// Server is the job front end: validation, content addressing, the report
// cache, singleflight coalescing, the admission bound, the journal, the job
// state machine and the HTTP API, over an Executor that runs the units.
// New builds the worker daemon; the federation coordinator builds one with
// NewServer. Stop it with Close (immediate) or Shutdown (graceful drain).
// Submit and Job are also usable directly for in-process embedding.
type Server struct {
	exec     Executor
	queueCap int
	maxJobs  int
	cache    *cache.Cache
	metrics  *obs.Registry
	met      frontMetrics
	events   *obs.EventLog // nil without CacheDir; Emit is nil-safe

	shutdownOnce sync.Once

	mu           *sync.Mutex
	jobs         map[string]*Job
	inflight     map[string]*Job // spec hash -> queued/running leader job
	journal      *journal.Journal
	terminal     []string // terminal job IDs in completion order (eviction queue)
	seq          int
	draining     bool
	cacheErrSeen map[string]bool // distinct cache write errors already logged
	meanUnitNs   float64         // EWMA of unit duration
}

// Job is one accepted submission. Its exported fields are fixed at
// admission; executors read them, set the Units' State, and drive the job
// through its methods with the front end's lock held.
type Job struct {
	ID         string
	Experiment string
	Trace      string // fleet-wide trace id (obs.TraceHeader)
	Hash       string // content address of the job's artifact
	Request    JobRequest
	Spec       experiments.Spec // validated, with the executor's knobs
	Units      []*Unit

	s         *Server
	state     string
	cached    bool
	coalesced bool
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	followers []*Job // coalesced submissions resolving with this leader
	remaining int
	artifact  []byte
}

// Unit is one shard unit of a job.
type Unit struct {
	Job   *Job
	Shard experiments.Shard // disabled for the single unit of an unsharded job
	State string
	// Done and Total are the unit's progress, when the executor reports it.
	Done, Total int
}

// NewServer builds a front end over exec, replays the job journal (when
// CacheDir is set) through it and registers the shared metrics. mu guards
// the front end's state and the executor's alike.
func NewServer(fc FrontConfig, mu *sync.Mutex, exec Executor) (*Server, error) {
	if fc.MaxJobs <= 0 {
		fc.MaxJobs = 1024
	}
	c, err := cache.New(fc.CacheDir, fc.CacheEntries)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		exec:         exec,
		queueCap:     fc.QueueCapacity,
		maxJobs:      fc.MaxJobs,
		cache:        c,
		metrics:      reg,
		met:          newFrontMetrics(reg),
		mu:           mu,
		jobs:         make(map[string]*Job),
		inflight:     make(map[string]*Job),
		cacheErrSeen: make(map[string]bool),
	}
	s.registerGauges()
	var backlog []journal.Accept
	if fc.CacheDir != "" {
		s.journal, backlog, err = journal.Open(filepath.Join(fc.CacheDir, "journal.jsonl"), fc.JournalFsync)
		if err != nil {
			return nil, err
		}
		// The event log is telemetry, never availability: a failed open is
		// logged and the daemon runs without it (Emit is nil-safe).
		if s.events, err = obs.OpenEventLog(filepath.Join(fc.CacheDir, "events.jsonl")); err != nil {
			log.Printf("service: opening event log: %v", err)
			s.events = nil
		}
	}
	s.mu.Lock()
	for i := range backlog {
		s.replayLocked(&backlog[i])
	}
	s.mu.Unlock()
	return s, nil
}

// jobSeq extracts the numeric sequence of a canonical job ID ("job-000042").
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Close stops the daemon immediately: admissions stop, in-flight work is
// abandoned, and every job still queued or running is terminal-marked failed
// ("daemon shut down ...") so no job ID ever reports a zombie queued state.
// Journaled accept records of abandoned jobs are retained for the next
// daemon to resume. Safe to call more than once.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // an already-expired deadline: drain nothing, abandon in flight
	_ = s.Shutdown(ctx)
}

// Shutdown drains the daemon gracefully: new submissions are rejected with
// ErrDraining and Health reports "draining" (so /healthz answers 503 and
// load balancers stop routing here); the executor keeps working until it is
// idle or ctx expires, then stops; jobs still pending are terminal-marked
// failed with a shutdown message and their journal records persist for the
// next daemon. Safe to call concurrently and more than once; every call
// returns once shutdown has fully completed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdown(ctx) })
	return nil
}

func (s *Server) shutdown(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.exec.Idle()
		s.mu.Unlock()
		if idle || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
	s.exec.Stop()
	s.mu.Lock()
	for _, j := range s.jobs {
		s.completeLocked(j, StateFailed, shutdownMsg, false)
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.met.journalError(err)
			log.Printf("service: closing job journal: %v", err)
		}
		s.journal = nil
	}
	s.mu.Unlock()
	if err := s.events.Close(); err != nil {
		log.Printf("service: closing event log: %v", err)
	}
}

// validate checks a request and returns the spec it runs and the single
// shard slice of a shard-unit job (disabled otherwise).
func (s *Server) validate(req JobRequest) (experiments.Spec, experiments.Shard, error) {
	def, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return experiments.Spec{}, experiments.Shard{}, err
	}
	if req.Shards < 0 {
		return experiments.Spec{}, experiments.Shard{}, fmt.Errorf("%w: negative shard count %d", experiments.ErrBadConfig, req.Shards)
	}
	shard, err := experiments.ParseShard(req.Shard)
	if err != nil {
		return experiments.Spec{}, experiments.Shard{}, err
	}
	if shard.Enabled() && req.Shards > 1 {
		return experiments.Spec{}, experiments.Shard{}, fmt.Errorf("%w: shard %q and shards=%d are mutually exclusive",
			experiments.ErrBadConfig, req.Shard, req.Shards)
	}
	if (shard.Enabled() || req.Shards > 1) && !def.Shardable {
		return experiments.Spec{}, experiments.Shard{}, fmt.Errorf("%w: experiment %q is deterministic and does not shard",
			experiments.ErrBadConfig, req.Experiment)
	}
	spec := req.Spec.Spec()
	if spec.Battery != "" {
		// Fail a bad battery name at submission instead of asynchronously.
		if _, err := experiments.NamedBatteryFactory(spec.Battery); err != nil {
			return experiments.Spec{}, experiments.Shard{}, err
		}
	}
	if err := s.exec.Check(req, &spec); err != nil {
		return experiments.Spec{}, experiments.Shard{}, err
	}
	return spec, shard, nil
}

// Submit validates and admits one job. A spec whose canonical hash is
// already in the report cache completes immediately with Cached set; a spec
// matching a job still queued or running coalesces onto it as a follower
// (Coalesced set) and resolves when the leader does; anything else hands the
// job's shard units to the executor, failing with ErrQueueFull (Retry-After
// estimate attached) when they do not fit the queue bound, or ErrDraining
// during shutdown.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	spec, shard, err := s.validate(req)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejectedDrain.Inc()
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := s.newJob(fmt.Sprintf("job-%06d", s.seq), req, time.Now())
	j.Spec = spec
	// A shard-unit job is content-addressed by its partial's hash (the
	// complete run's hash when unsharded), so duplicate dispatches of one
	// unit dedupe exactly like duplicate complete submissions.
	j.Hash = experiments.ShardSpecHash(req.Experiment, spec, shard)
	if err := s.admitLocked(j, shard, nil); err != nil {
		return JobStatus{}, err
	}
	s.evictLocked()
	return s.statusLocked(j), nil
}

// newJob builds a job record, issuing a server-side trace id for untraced
// submissions (raw curl) so the event log still threads its records.
func (s *Server) newJob(id string, req JobRequest, created time.Time) *Job {
	j := &Job{ID: id, Experiment: req.Experiment, Trace: req.TraceID, Request: req, s: s, created: created}
	if j.Trace == "" {
		j.Trace = obs.NewTraceID()
	}
	return j
}

// admitLocked resolves a validated job along its admission path: cached
// (done at once), coalesced onto the in-flight leader of the same hash, or
// computed (units handed to the executor). A live submission (rec nil) is
// journaled and may be rejected by the queue bound; a replayed one is
// already journaled and always admitted. Callers hold s.mu.
func (s *Server) admitLocked(j *Job, shard experiments.Shard, rec *journal.Accept) error {
	path := "computed"
	if artifact, ok := s.cacheGetLocked(j, j.Hash); ok {
		path = "cached"
		j.cached = true
		j.artifact = artifact
		s.met.jobsCached.Inc()
	} else if leader := s.inflight[j.Hash]; leader != nil {
		// Singleflight coalescing: attach to the in-flight computation of
		// the same spec instead of queueing a duplicate. Followers consume
		// no queue capacity and resolve when the leader finalises.
		path = "coalesced"
		j.coalesced = true
		j.state = leader.state
		j.started = leader.started
		leader.followers = append(leader.followers, j)
		s.met.jobsCoalesced.Inc()
	} else {
		// Count the units before building any: the fan-out comes from
		// outside, and the bound must reject a huge one unallocated.
		n := 1
		if !shard.Enabled() && j.Request.Shards > 1 {
			n = j.Request.Shards
		}
		if l := s.exec.Load(); rec == nil && l.Pending+n > s.queueCap {
			s.met.rejectedFull.Inc()
			return &queueFullError{units: n, capacity: s.queueCap, pending: l.Pending, retryAfter: s.retryAfterLocked(l)}
		}
		j.Units = make([]*Unit, n)
		for i := range j.Units {
			j.Units[i] = &Unit{Job: j, Shard: shard, State: StateQueued}
			if n > 1 {
				j.Units[i].Shard = experiments.Shard{Index: i, Count: n}
			}
		}
		j.state = StateQueued
		j.remaining = n
		s.inflight[j.Hash] = j
		s.met.jobsComputed.Inc()
	}
	s.jobs[j.ID] = j
	detail := path
	if rec != nil {
		detail = "replayed"
	}
	j.Emit(obs.Event{Event: obs.EventJobAccepted, Detail: detail})
	if rec == nil && path != "cached" {
		s.journalAcceptLocked(j)
	}
	switch path {
	case "cached":
		s.completeLocked(j, StateDone, "", rec != nil)
	case "computed":
		s.exec.Start(j, rec)
	}
	return nil
}

// replayLocked re-admits one journaled job on start, under its original ID
// when that ID is canonical and under a fresh one otherwise. Records that no
// longer decode or validate are terminal-marked failed and compacted away
// rather than wedging the restart. Callers hold s.mu.
func (s *Server) replayLocked(rec *journal.Accept) {
	reissued := false
	if n, ok := jobSeq(rec.ID); ok {
		s.seq = max(s.seq, n)
	} else {
		// The record moves to the new ID, so it compacts away once the job
		// finishes instead of replaying on every start.
		s.journalDoneLocked(rec.ID)
		s.seq++
		rec.ID = fmt.Sprintf("job-%06d", s.seq)
		reissued = true
	}
	created := rec.Created
	if created.IsZero() {
		created = time.Now()
	}
	req := JobRequest{Experiment: rec.Experiment, Shards: rec.Shards, Shard: rec.Shard, TraceID: rec.Trace}
	j := s.newJob(rec.ID, req, created)
	s.jobs[j.ID] = j
	err := json.Unmarshal(rec.Spec, &j.Request.Spec)
	var shard experiments.Shard
	if err == nil {
		j.Spec, shard, err = s.validate(j.Request)
	}
	if err != nil {
		s.completeLocked(j, StateFailed, "journal replay: "+err.Error(), true)
		return
	}
	// Recompute the content address instead of trusting the journaled one:
	// a ReportVersion/ResultsVersion bump between restarts must re-run.
	j.Hash = experiments.ShardSpecHash(j.Experiment, j.Spec, shard)
	_ = s.admitLocked(j, shard, rec)
	if reissued && !j.Terminal() {
		s.journalAcceptLocked(j)
	}
}

// cacheGetLocked wraps the report cache lookup, mirroring hit/miss onto the
// registry and the event log. Callers hold s.mu.
func (s *Server) cacheGetLocked(j *Job, hash string) ([]byte, bool) {
	artifact, ok := s.cache.Get(hash)
	name := obs.EventCacheMiss
	if ok {
		s.met.cacheHits.Inc()
		name = obs.EventCacheHit
	} else {
		s.met.cacheMisses.Inc()
	}
	j.Emit(obs.Event{Event: name, Detail: hash})
	return artifact, ok
}

// putCacheLocked stores one artifact. A cache write failure (disk full,
// permissions) must not fail the job: the artifact is already in memory;
// only future resubmissions lose the shortcut. It is counted in Health and
// logged once per distinct error. Callers hold s.mu.
func (s *Server) putCacheLocked(hash string, artifact []byte) {
	if err := s.cache.Put(hash, artifact); err != nil {
		s.met.cacheWriteErr.Inc()
		if !s.cacheErrSeen[err.Error()] {
			s.cacheErrSeen[err.Error()] = true
			log.Printf("service: report cache write failed (artifact kept in memory): %v", err)
		}
	}
}

// journalAcceptLocked appends one accepted job to the WAL. Journal failures
// degrade durability, not availability: they are logged and the job still
// runs. Callers hold s.mu.
func (s *Server) journalAcceptLocked(j *Job) {
	if s.journal == nil {
		return
	}
	raw, err := json.Marshal(j.Request.Spec)
	if err == nil {
		err = s.journal.Accept(journal.Accept{
			ID: j.ID, Experiment: j.Experiment, Spec: raw,
			Shards: j.Request.Shards, Shard: j.Request.Shard, Hash: j.Hash, Created: j.created,
			Trace: j.Trace,
		})
	}
	if err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling job %s failed (job runs, restart will not resume it): %v", j.ID, err)
	}
}

// journalDoneLocked marks one job finished in the WAL. Callers hold s.mu.
func (s *Server) journalDoneLocked(id string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Done(id); err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling completion of %s: %v", id, err)
	}
}

// finishLocked marks j terminal and records it in the eviction queue (a job
// reaches a terminal state exactly once). Callers hold s.mu.
func (s *Server) finishLocked(j *Job, state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	s.terminal = append(s.terminal, j.ID)
	if state == StateDone {
		s.met.jobsDone.Inc()
		j.Emit(obs.Event{Event: obs.EventJobDone})
	} else {
		s.met.jobsFailed.Inc()
		j.Emit(obs.Event{Event: obs.EventJobFailed, Detail: errMsg})
	}
}

// completeLocked finishes a non-terminal job and all its still-pending
// followers with the same terminal state (followers of a done leader share
// its artifact), deregisters the in-flight hash entry, releases the job's
// units from the executor and — unless the job is being abandoned by
// shutdown — marks the journal records done so they compact away instead of
// replaying. Callers hold s.mu.
func (s *Server) completeLocked(j *Job, state, errMsg string, journalDone bool) {
	if j.Terminal() {
		return
	}
	s.finishLocked(j, state, errMsg)
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	if j.Units != nil {
		s.exec.Release(j)
	}
	if journalDone {
		s.journalDoneLocked(j.ID)
	}
	for _, f := range j.followers {
		if f.Terminal() {
			continue
		}
		if state == StateDone {
			f.artifact = j.artifact
		}
		s.finishLocked(f, state, errMsg)
		if journalDone {
			s.journalDoneLocked(f.ID)
		}
	}
}

// evictLocked drops the oldest terminal jobs beyond the MaxJobs bound, so a
// long-running daemon's job map cannot grow without limit. Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.maxJobs && len(s.terminal) > 0 {
		id := s.terminal[0]
		s.terminal = s.terminal[1:]
		delete(s.jobs, id)
	}
}

// retryAfterLocked estimates when a rejected submitter should retry: the
// executor's backlog divided across its slots at the recent mean unit
// duration (1 s before any unit has completed), clamped to [1 s, 5 min].
// Callers hold s.mu.
func (s *Server) retryAfterLocked(l Load) time.Duration {
	mean := time.Duration(s.meanUnitNs)
	if mean <= 0 {
		mean = time.Second
	}
	d := mean * time.Duration(l.Backlog) / time.Duration(max(l.Slots, 1))
	return min(max(d, time.Second), 5*time.Minute)
}

// Job returns the status of one job.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

// Artifact returns the finished job's report artifact: exactly the bytes the
// equivalent local `cmd/experiments run -o` writes. ErrJobNotFinished while
// the job is queued or running; the job's failure message once failed.
func (s *Server) Artifact(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateDone:
		return j.artifact, nil
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, j.errMsg)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrJobNotFinished, id, j.state)
	}
}

// Health snapshots the daemon's load. Status is "draining" once Shutdown or
// Close has begun, "ok" otherwise.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	l := s.exec.Load()
	// The lifetime counters read straight off the metrics registry — the
	// same series /metrics renders — so the two endpoints agree by
	// construction (pinned by TestHealthMatchesMetrics).
	h := Health{
		Status:           status,
		QueueDepth:       l.Queued,
		QueueCapacity:    s.queueCap,
		InFlight:         l.InFlight,
		Workers:          l.Slots,
		Jobs:             len(s.jobs),
		CoalescedJobs:    int(s.met.jobsCoalesced.Value()),
		CacheEntries:     s.cache.Len(),
		CacheHits:        int(s.met.cacheHits.Value()),
		CacheMisses:      int(s.met.cacheMisses.Value()),
		CacheWriteErrors: int(s.met.cacheWriteErr.Value()),
		MeanUnitMs:       s.meanUnitNs / 1e6,
	}
	s.exec.FillHealth(&h)
	return h
}

// statusLocked builds a JobStatus snapshot. Callers hold s.mu.
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:         j.ID,
		Experiment: j.Experiment,
		TraceID:    j.Trace,
		Hash:       j.Hash,
		State:      j.state,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Error:      j.errMsg,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
	for _, u := range j.Units {
		st.Shards = append(st.Shards, ShardStatus{
			Shard: u.Shard.String(),
			State: u.State,
			Done:  u.Done,
			Total: u.Total,
		})
	}
	return st
}

// The methods below are the executor's handle on a job; callers hold the
// front end's lock.

// Terminal reports whether the job is done or failed.
func (j *Job) Terminal() bool { return j.state == StateDone || j.state == StateFailed }

// MarkRunning moves a queued job, and its queued followers, to running.
func (j *Job) MarkRunning(now time.Time) {
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.started = now
	for _, f := range j.followers {
		if f.state == StateQueued {
			f.state = StateRunning
			f.started = now
		}
	}
}

// UnitDone marks u done and reports whether it was the job's last unit.
func (j *Job) UnitDone(u *Unit) bool {
	u.State = StateDone
	j.remaining--
	return j.remaining == 0
}

// Emit records one event of the job in the event log.
func (j *Job) Emit(ev obs.Event) {
	ev.Trace, ev.Job, ev.Experiment = j.Trace, j.ID, j.Experiment
	j.s.events.Emit(ev)
}

// ObserveUnit records one unit's duration in the unit histogram and the
// mean behind Retry-After, and returns the updated mean.
func (j *Job) ObserveUnit(d time.Duration) time.Duration {
	s := j.s
	s.met.unitDur.Observe(d.Seconds())
	if s.meanUnitNs == 0 {
		s.meanUnitNs = float64(d)
	} else {
		s.meanUnitNs = 0.8*s.meanUnitNs + 0.2*float64(d)
	}
	return time.Duration(s.meanUnitNs)
}

// CacheGet looks up one artifact (a shard partial, say) for the job.
func (j *Job) CacheGet(hash string) ([]byte, bool) { return j.s.cacheGetLocked(j, hash) }

// CachePut stores one artifact for the job; failures are counted and
// logged, never returned.
func (j *Job) CachePut(hash string, artifact []byte) { j.s.putCacheLocked(hash, artifact) }

// JournalLease journals one dispatch of a unit of the job.
func (j *Job) JournalLease(l journal.Lease) {
	s := j.s
	if s.journal == nil {
		return
	}
	if err := s.journal.Lease(j.ID, l); err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling lease of %s %s: %v", j.ID, l.Unit, err)
	}
}

// Fail fails the job and its followers with msg.
func (j *Job) Fail(msg string) { j.s.completeLocked(j, StateFailed, msg, true) }

// Finish renders the job's complete report as its artifact and delivers it.
func (j *Job) Finish(rep *experiments.Report) {
	var buf bytes.Buffer
	if err := experiments.WriteArtifact(&buf, []*experiments.Report{rep}); err != nil {
		j.Fail(err.Error())
		return
	}
	if len(j.Units) > 1 {
		j.Emit(obs.Event{Event: obs.EventMerge, Detail: fmt.Sprintf("%d shard partials", len(j.Units))})
	}
	j.Deliver(buf.Bytes())
}

// Deliver completes the job, and its followers, with artifact, storing it in
// the report cache under the job's hash.
func (j *Job) Deliver(artifact []byte) {
	j.artifact = artifact
	j.s.putCacheLocked(j.Hash, artifact)
	j.s.completeLocked(j, StateDone, "", true)
}
