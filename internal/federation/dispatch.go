package federation

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"syscall"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
)

// heartbeatLoop probes every worker's /healthz each interval. A passing probe
// makes the worker live and refreshes its slot count (the worker's pool
// size); DeadAfter consecutive failures mark it dead, which expires all its
// leases immediately — their units re-queue without waiting for the lease
// deadline.
func (f *fleet) heartbeatLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		f.heartbeatRound()
		select {
		case <-f.ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (f *fleet) heartbeatRound() {
	f.mu.Lock()
	probes := make([]*worker, 0, len(f.workers))
	for _, w := range f.workers {
		probes = append(probes, w)
	}
	f.mu.Unlock()

	type result struct {
		w     *worker
		slots int
		ok    bool
	}
	results := make(chan result, len(probes))
	// The probe deadline gets a 1 s floor above the interval: a busy worker
	// saturating its cores on shard units can take tens of milliseconds to
	// answer /healthz, and a short -heartbeat must not turn that latency
	// into a death verdict (dead workers are detected fast regardless —
	// their sockets refuse instantly).
	timeout := f.cfg.HeartbeatInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	for _, w := range probes {
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(f.ctx, timeout)
			defer cancel()
			h, err := w.probe.Health(ctx)
			// A draining worker answers 503 with a full snapshot, but it is
			// shutting down: treat it like a failed probe so no new units
			// route there and its leases expire on the usual schedule.
			results <- result{w: w, slots: h.Workers, ok: err == nil && h.Status == "ok"}
		}(w)
	}
	collected := make([]result, 0, len(probes))
	for range probes {
		collected = append(collected, <-results)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range collected {
		if r.ok {
			if !r.w.live {
				f.events.Emit(obs.Event{Event: obs.EventWorkerUp, Worker: r.w.url})
			}
			r.w.live = true
			r.w.fails = 0
			r.w.slots = r.slots
			f.cond.Broadcast()
			continue
		}
		r.w.fails++
		if r.w.fails >= f.cfg.DeadAfter && r.w.live {
			f.markWorkerDownLocked(r.w, obs.ReasonHeartbeatMiss,
				fmt.Sprintf("%d consecutive heartbeat probes failed", r.w.fails))
		}
	}
}

// leaseFailed fails one lease and, when the underlying error is a
// connection-level transport error (refused, reset, timed out — the daemon
// is not answering at the socket level), marks the worker down immediately.
// Waiting for DeadAfter missed heartbeats instead would keep routing the
// re-queued unit back to the corpse: a dead worker holds zero leases, so it
// wins the most-free-slots pick every time and burns through MaxAttempts in
// the sub-second window before the heartbeat verdict lands. API-level errors
// (an unknown remote job after a worker restart, a decode failure) leave the
// worker up — its socket answered.
func (f *fleet) leaseFailed(l *lease, msg string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failLeaseLocked(l, msg)
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		f.markWorkerDownLocked(l.w, obs.ReasonTransportError, msg)
	}
}

// markWorkerDownLocked takes a worker out of dispatch rotation and expires
// its outstanding leases, recording the verdict — reason is the structured
// cause (obs.ReasonHeartbeatMiss or obs.ReasonTransportError), why the
// free-form one. The next passing heartbeat probe revives it. Callers hold
// f.mu.
func (f *fleet) markWorkerDownLocked(w *worker, reason, why string) {
	if !w.live {
		return
	}
	log.Printf("federation: marking worker %s down (%s): %s", w.url, reason, why)
	if reason == obs.ReasonTransportError {
		f.met.downTransport.Inc()
	} else {
		f.met.downHeartbeat.Inc()
	}
	f.events.Emit(obs.Event{
		Event: obs.EventWorkerDown, Worker: w.url, Reason: reason, Detail: why,
	})
	w.live = false
	w.fails = f.cfg.DeadAfter
	f.expireWorkerLeasesLocked(w)
}

// expireWorkerLeasesLocked expires every outstanding lease held by a dead
// worker. Callers hold f.mu.
func (f *fleet) expireWorkerLeasesLocked(w *worker) {
	for _, fj := range f.jobs {
		for _, u := range fj.units {
			for _, l := range u.leases {
				if l.w == w && !l.cancelled {
					f.met.leaseExpiries.Inc()
					f.failLeaseLocked(l, fmt.Sprintf("worker %s stopped answering heartbeats", w.url))
				}
			}
		}
	}
}

// dispatcher pairs queued units with free worker slots and spawns one lease
// goroutine per dispatch. It sleeps on the cond var whenever nothing is
// dispatchable (empty queue, no live capacity).
func (f *fleet) dispatcher() {
	defer f.wg.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.ctx.Err() != nil {
			return
		}
		l := f.pickLocked()
		if l == nil {
			f.cond.Wait()
			continue
		}
		f.wg.Add(1)
		go f.runLease(l)
	}
}

// pickLocked pops the first dispatchable (unit, worker) pair off the queue
// and leases it: the unit's preferred worker when live with a free slot (the
// journaled lease target on restart — the result is likely cached or still
// in flight there), otherwise the live worker with the most free slots that
// is not already running this unit. Finished or terminal units are dropped
// from the queue in passing. Returns nil when nothing is dispatchable.
// Callers hold f.mu.
func (f *fleet) pickLocked() *lease {
	for qi := 0; qi < len(f.queue); qi++ {
		u := f.queue[qi]
		if u.finished() || u.Job.Terminal() {
			u.queued = false
			f.queue = append(f.queue[:qi], f.queue[qi+1:]...)
			qi--
			continue
		}
		w := f.workerForLocked(u)
		if w == nil {
			continue // no capacity for this unit right now; try the next
		}
		f.queue = append(f.queue[:qi], f.queue[qi+1:]...)
		u.queued = false
		u.attempts++
		now := time.Now()
		u.State = service.StateRunning
		u.Job.MarkRunning(now)
		l := &lease{unit: u, w: w, started: now, expires: now.Add(f.cfg.LeaseDuration)}
		u.leases = append(u.leases, l)
		w.leased++
		journalLeaseLocked(l)
		return l
	}
	return nil
}

// workerForLocked picks the dispatch target for one unit. Callers hold f.mu.
func (f *fleet) workerForLocked(u *funit) *worker {
	eligible := func(w *worker) bool {
		if !w.live || w.leased >= w.slots {
			return false
		}
		for _, l := range u.leases {
			if l.w == w && !l.cancelled {
				return false // already running this unit (speculation targets another worker)
			}
		}
		return true
	}
	if u.prefer != "" {
		if w := f.workers[u.prefer]; w != nil && eligible(w) {
			return w
		}
	}
	var best *worker
	for _, w := range f.workers {
		if !eligible(w) {
			continue
		}
		if best == nil || w.slots-w.leased > best.slots-best.leased {
			best = w
		}
	}
	return best
}

// runLease drives one dispatched unit on its worker: submit the shard-unit
// job, poll its status (each successful poll renews the lease), fetch the
// artifact on completion and deliver it. Every failure path funnels into
// failLeaseLocked, which re-queues or fails the unit.
func (f *fleet) runLease(l *lease) {
	defer f.wg.Done()
	u := l.unit
	j := u.Job
	if hook := f.cfg.OnDispatch; hook != nil {
		hook(j.ID, u.Shard, l.w.url)
	}
	j.Emit(obs.Event{Event: obs.EventUnitLeased, Unit: unitName(u), Worker: l.w.url})
	// The job's trace id rides the X-Trace-Id header of every unit dispatch,
	// so the worker's event log carries the same trace as the coordinator's.
	req := service.JobRequest{Experiment: j.Experiment, Spec: j.Request.Spec, TraceID: j.Trace}
	if u.Shard.Enabled() {
		req.Shard = u.Shard.String()
	}
	st, err := l.w.sub.Submit(f.ctx, req)
	if err != nil {
		f.leaseFailed(l, fmt.Sprintf("submitting to %s: %v", l.w.url, err), err)
		return
	}
	f.mu.Lock()
	l.remote = st.ID
	l.expires = time.Now().Add(f.cfg.LeaseDuration)
	journalLeaseLocked(l)
	cancelled := l.cancelled
	f.mu.Unlock()

	for !cancelled {
		if st.State == service.StateDone {
			raw, err := l.w.sub.ReportArtifact(f.ctx, st.ID)
			if err != nil {
				f.leaseFailed(l, fmt.Sprintf("fetching artifact from %s: %v", l.w.url, err), err)
				return
			}
			f.deliver(l, raw)
			return
		}
		if st.State == service.StateFailed {
			// Worker-reported failure. It may be deterministic (a bad spec —
			// rare, the coordinator validates upfront) or transient (the
			// worker was shutting down and abandoned the job); both re-queue
			// until MaxAttempts, which bounds the deterministic case.
			f.mu.Lock()
			f.failLeaseLocked(l, fmt.Sprintf("worker %s: %s", l.w.url, st.Error))
			f.mu.Unlock()
			return
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(f.cfg.PollInterval):
		}
		st, err = l.w.sub.Job(f.ctx, st.ID)
		if err != nil {
			f.leaseFailed(l, fmt.Sprintf("polling %s: %v", l.w.url, err), err)
			return
		}
		f.mu.Lock()
		if !l.cancelled {
			// The worker is answering: renew the lease.
			l.expires = time.Now().Add(f.cfg.LeaseDuration)
			f.met.leaseRenewals.Inc()
		}
		cancelled = l.cancelled
		f.mu.Unlock()
	}
}

// failLeaseLocked handles every way a lease ends without delivering: release
// the slot and, when this was the unit's last active lease, re-queue the unit
// (below MaxAttempts) or fail the job. A unit whose speculative duplicate is
// still running is left to that copy. Callers hold f.mu.
func (f *fleet) failLeaseLocked(l *lease, msg string) {
	if l.cancelled {
		return // already expired/superseded; the monitor handled the unit
	}
	f.releaseLocked(l)
	u := l.unit
	u.leases = dropLease(u.leases, l)
	j := u.Job
	if u.finished() || j.Terminal() {
		return
	}
	if len(u.leases) > 0 {
		return // a speculative copy is still in flight
	}
	if u.attempts >= f.cfg.MaxAttempts {
		u.State = service.StateFailed
		j.Emit(obs.Event{Event: obs.EventUnitFailed, Unit: unitName(u), Worker: l.w.url, Detail: msg})
		j.Fail(fmt.Sprintf("unit %s failed after %d attempts: %s", unitName(u), u.attempts, msg))
		return
	}
	// Every path here — an expired lease, a dead worker, a transport error, a
	// worker-reported failure — ends in the same re-dispatch, counted once.
	f.met.expiredRe.Inc()
	j.Emit(obs.Event{Event: obs.EventUnitRedispatched, Unit: unitName(u), Worker: l.w.url, Detail: msg})
	log.Printf("federation: re-queueing %s unit %s (attempt %d): %s", j.ID, unitName(u), u.attempts, msg)
	u.State = service.StateQueued
	f.enqueueLocked(u)
}

// unitName names a unit for logs and errors.
func unitName(u *funit) string {
	if u.Shard.Enabled() {
		return u.Shard.String()
	}
	return "0/1"
}

// dropLease removes one lease from a slice.
func dropLease(ls []*lease, l *lease) []*lease {
	out := ls[:0]
	for _, x := range ls {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}

// leaseMonitor expires overdue leases and speculatively re-dispatches
// stragglers.
func (f *fleet) leaseMonitor() {
	defer f.wg.Done()
	period := f.cfg.LeaseDuration / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-tick.C:
		}
		f.monitorRound()
	}
}

func (f *fleet) monitorRound() {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	for j, fj := range f.jobs {
		for _, u := range fj.units {
			if u.finished() {
				continue
			}
			// Expired leases: the worker stopped renewing (died, wedged, or
			// unreachable) — re-queue elsewhere.
			for _, l := range u.leases {
				if !l.cancelled && now.After(l.expires) {
					f.met.leaseExpiries.Inc()
					f.failLeaseLocked(l, fmt.Sprintf("lease on %s expired", l.w.url))
				}
			}
			// Stragglers: one active lease, runtime far beyond the fleet
			// mean — dispatch a speculative duplicate; first completion wins.
			if len(u.leases) == 1 && !u.queued && u.attempts < f.cfg.MaxAttempts {
				l := u.leases[0]
				threshold := f.cfg.StragglerMin
				if mean := time.Duration(f.cfg.StragglerFactor * float64(f.meanUnit)); mean > threshold {
					threshold = mean
				}
				if now.Sub(l.started) > threshold {
					f.met.speculative.Inc()
					j.Emit(obs.Event{
						Event: obs.EventSpeculative, Unit: unitName(u), Worker: l.w.url,
						Detail: fmt.Sprintf("%.1fs > %.1fs threshold", now.Sub(l.started).Seconds(), threshold.Seconds()),
					})
					log.Printf("federation: %s unit %s is a straggler on %s (%.1fs > %.1fs); dispatching a duplicate",
						j.ID, unitName(u), l.w.url, now.Sub(l.started).Seconds(), threshold.Seconds())
					f.enqueueLocked(u)
				}
			}
		}
	}
}

// deliver folds one completed unit's artifact into its job: the first copy
// wins, later duplicates are discarded (bit-exact by construction), shard
// partials are cached under their content address and merged incrementally,
// and the last unit finalises the job.
func (f *fleet) deliver(l *lease, raw []byte) {
	u := l.unit
	j := u.Job
	var rep *experiments.Report
	if u.Shard.Enabled() {
		var err error
		rep, err = decodePartial(raw)
		if err != nil {
			f.mu.Lock()
			f.failLeaseLocked(l, fmt.Sprintf("decoding partial from %s: %v", l.w.url, err))
			f.mu.Unlock()
			return
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dur := time.Since(l.started)
	if !l.cancelled {
		f.releaseLocked(l)
	}
	u.leases = dropLease(u.leases, l)
	fj := f.jobs[j]
	if u.finished() || fj == nil {
		return // a duplicate (speculation or expiry re-dispatch) already delivered
	}
	f.meanUnit = j.ObserveUnit(dur)
	if l.w.meanUnitNs == 0 {
		l.w.meanUnitNs = float64(dur)
	} else {
		l.w.meanUnitNs = 0.8*l.w.meanUnitNs + 0.2*float64(dur)
	}
	j.Emit(obs.Event{Event: obs.EventUnitFinished, Unit: unitName(u), Worker: l.w.url,
		Detail: dur.Round(time.Millisecond).String()})
	// Cancel any other outstanding copies of this unit; their pollers exit.
	for _, ol := range u.leases {
		f.releaseLocked(ol)
	}
	u.leases = nil
	if !u.Shard.Enabled() {
		// Unsharded: the worker's complete artifact is proxied verbatim, so
		// the coordinator's bytes are the worker's bytes are the local run's.
		j.UnitDone(u.Unit)
		j.Deliver(raw)
		return
	}
	j.CachePut(experiments.ShardSpecHash(j.Experiment, j.Spec, u.Shard), raw)
	if err := f.foldLocked(fj, u, rep); err != nil {
		u.State = service.StateFailed
		j.Fail(err.Error())
	}
}

// foldLocked merges one shard partial into its job and, when it was the
// last, renders the merged artifact and completes the job. The merger's
// exact-path refold makes the bytes identical to a local
// `cmd/experiments run -o`. Callers hold f.mu.
func (f *fleet) foldLocked(fj *fjob, u *funit, rep *experiments.Report) error {
	if err := fj.merger.Add(rep); err != nil {
		return err
	}
	if !u.Job.UnitDone(u.Unit) {
		return nil
	}
	merged, err := fj.merger.Report()
	if err != nil {
		u.Job.Fail(err.Error())
		return nil
	}
	u.Job.Finish(merged)
	return nil
}
