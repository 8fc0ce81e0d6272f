package federation

import "battsched/internal/obs"

// fleetMetrics holds the fleet's own registry-backed counters, registered on
// the front end's registry beside the shared series. Everything here is
// created up front in newFleetMetrics — never under f.mu — so render-time
// gauge callbacks that take f.mu cannot deadlock against registration (see
// the obs locking contract). Per-worker series are the one runtime addition
// and are registered outside f.mu too (registerWorkerMetrics).
type fleetMetrics struct {
	leaseRenewals *obs.Counter // successful status polls extending a lease
	leaseExpiries *obs.Counter // leases expired (deadline passed or worker died)
	expiredRe     *obs.Counter // unit re-dispatches after a failed/expired lease
	speculative   *obs.Counter // straggler duplicate dispatches
	downHeartbeat *obs.Counter // battsched_worker_down_total{reason="heartbeat-miss"}
	downTransport *obs.Counter // battsched_worker_down_total{reason="transport-error"}
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	const downHelp = "Workers taken out of dispatch rotation, by verdict: heartbeat-miss (consecutive /healthz probes failed) vs transport-error (a lease RPC failed at the socket level)."
	return fleetMetrics{
		leaseRenewals: r.Counter("battsched_fleet_lease_renewals_total", "Lease renewals from successful remote status polls."),
		leaseExpiries: r.Counter("battsched_fleet_lease_expiries_total", "Leases expired: deadline passed without renewal, or the worker was marked dead."),
		expiredRe:     r.Counter("battsched_fleet_expired_redispatches_total", "Units re-dispatched after a failed or expired lease."),
		speculative:   r.Counter("battsched_fleet_speculative_dispatches_total", "Straggler units duplicated onto a second worker."),
		downHeartbeat: r.Counter("battsched_worker_down_total", downHelp, "reason", obs.ReasonHeartbeatMiss),
		downTransport: r.Counter("battsched_worker_down_total", downHelp, "reason", obs.ReasonTransportError),
	}
}

// registerGauges wires the fleet gauges to the same state /healthz reports.
// Called from New before the loops start; the callbacks take f.mu at render
// time.
func (f *fleet) registerGauges() {
	r := f.reg
	read := func(g func() float64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return g()
		}
	}
	r.GaugeFunc("battsched_fleet_workers", "Registered workers.",
		read(func() float64 { return float64(len(f.workers)) }))
	r.GaugeFunc("battsched_fleet_live_workers", "Workers passing heartbeats.",
		read(func() float64 {
			n := 0
			for _, w := range f.workers {
				if w.live {
					n++
				}
			}
			return float64(n)
		}))
	r.GaugeFunc("battsched_fleet_slots", "Total execution slots across live workers.",
		read(func() float64 { return float64(f.liveSlotsLocked()) }))
	r.GaugeFunc("battsched_fleet_free_slots", "Live slots not holding a lease.",
		read(func() float64 {
			n := 0
			for _, w := range f.workers {
				if w.live {
					n += max(w.slots-w.leased, 0)
				}
			}
			return float64(n)
		}))
	r.GaugeFunc("battsched_fleet_queued_units", "Units waiting for a slot.",
		read(func() float64 { return float64(len(f.queue)) }))
	r.GaugeFunc("battsched_fleet_leased_units", "Units under a worker lease.",
		read(func() float64 { return float64(f.leasedLocked()) }))
}

// registerWorkerMetrics registers one worker's per-URL series: liveness,
// outstanding leases and mean unit time. Idempotent (re-registration swaps
// in an equivalent callback reading the same map entry) and called WITHOUT
// f.mu held — the callbacks take f.mu at render time.
func (f *fleet) registerWorkerMetrics(url string) {
	read := func(g func(w *worker) float64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			w := f.workers[url]
			if w == nil {
				return 0
			}
			return g(w)
		}
	}
	f.reg.GaugeFunc("battsched_worker_up", "Per-worker liveness (1 = passing heartbeats).",
		read(func(w *worker) float64 {
			if w.live {
				return 1
			}
			return 0
		}), "worker", url)
	f.reg.GaugeFunc("battsched_worker_leased", "Units this coordinator currently leases to the worker.",
		read(func(w *worker) float64 { return float64(w.leased) }), "worker", url)
	f.reg.GaugeFunc("battsched_worker_mean_unit_seconds", "Per-worker mean dispatch-to-delivery unit time (EWMA).",
		read(func(w *worker) float64 { return w.meanUnitNs / 1e9 }), "worker", url)
}
