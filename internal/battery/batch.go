package battery

import (
	"fmt"
	"math"

	"battsched/internal/obs"
	"battsched/internal/profile"
)

// SimulateBatch plays one load profile against N battery models, replaying
// the segment stream once instead of once per model, and returns one Result
// per model in input order. Results are bit-identical to N sequential
// SimulateUntilExhausted calls with the same options: each model sees exactly
// the same sequence of Drain/DrainSegment/Advance calls with exactly the same
// arguments it would see alone.
//
// The batch splits into two groups by the usual dispatch rule. Analytic
// models (SegmentDrainer, not stepped-forced, AnalyticGater-approved) are
// already O(segments + repetitions) per simulation — their repetition
// transfer operators amortise the replay internally — so they run through the
// scalar analytic driver unchanged. Stepped models are where the replay cost
// lives: they share one slot clock, every substep of the subdivided segment
// stream is generated once and applied to all still-alive stepped models, and
// exhausted models drop out of the active set so the pass narrows as
// batteries die.
//
// The shared clock requires the full-sustain property from alive stepped
// models: a model that survives a substep must sustain all of it (every
// registered model does). A partial sustain from a surviving model would
// desynchronise that model's battery time from the shared profile time, so
// SimulateBatch reports it as ErrNoProgress instead of silently diverging
// from the sequential results.
func SimulateBatch(models []Model, p *profile.Profile, opts SimulateOptions) ([]Result, error) {
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("%w (batch index %d)", ErrNilModel, i)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	opts.setDefaults()
	obs.Sim.BatteryBatches.Add(1)
	results := make([]Result, len(models))
	var stepped []steppedEntry
	for i, m := range models {
		if sd, ok := analyticDrainer(m, opts.MaxStep); ok {
			obs.Sim.BatteryAnalytic.Add(1)
			r, err := simulateAnalytic(sd, p, opts)
			if err != nil {
				return nil, err
			}
			results[i] = r
			continue
		}
		stepped = append(stepped, steppedEntry{idx: i, m: m})
	}
	steppedOpts := opts
	if steppedOpts.MaxStep <= 0 {
		steppedOpts.MaxStep = 1.0
	}
	obs.Sim.BatteryStepped.Add(uint64(len(stepped)))
	if err := simulateSteppedBatch(stepped, p, steppedOpts, results); err != nil {
		return nil, err
	}
	return results, nil
}

// steppedEntry pairs a stepped-path model with its slot in the results slice.
type steppedEntry struct {
	idx int
	m   Model
}

// simulateSteppedBatch is simulateStepped over a set of models sharing one
// slot clock. Because every alive model sustains each substep in full, the
// whole driver state machine — profile time t, the per-segment remaining
// countdown, the horizon capping and the repetition counter — is identical
// across models, so it is kept once and each substep is generated once.
// Models that die are finalised with their own sustained fraction of the
// fatal substep and removed from the active set.
func simulateSteppedBatch(entries []steppedEntry, p *profile.Profile, opts SimulateOptions, results []Result) error {
	if len(entries) == 0 {
		return nil
	}
	for _, e := range entries {
		e.m.Reset()
	}
	active := entries
	reps := 0
	t := 0.0
	for t < opts.MaxTime && len(active) > 0 {
		completed := true
		for _, seg := range p.Segments {
			remaining := seg.Duration
			for remaining > 1e-12 && len(active) > 0 {
				dt := math.Min(remaining, opts.MaxStep)
				if t+dt > opts.MaxTime {
					dt = opts.MaxTime - t
					if dt <= 0 {
						completed = false
						break
					}
				}
				n := 0
				for _, e := range active {
					sustained, alive := e.m.Drain(seg.Current, dt)
					if !alive {
						results[e.idx] = Result{
							Lifetime:        t + sustained,
							DeliveredCharge: e.m.DeliveredCharge(),
							Exhausted:       true,
							Repetitions:     reps,
						}
						continue
					}
					if sustained != dt {
						return fmt.Errorf("%w: %s sustained %v of a %v s step in a batch", ErrNoProgress, e.m.Name(), sustained, dt)
					}
					active[n] = e
					n++
				}
				active = active[:n]
				t += dt
				remaining -= dt
			}
			if !completed || len(active) == 0 {
				break
			}
		}
		if !completed {
			break
		}
		reps++
	}
	for _, e := range active {
		results[e.idx] = Result{
			Lifetime:        t,
			DeliveredCharge: e.m.DeliveredCharge(),
			Repetitions:     reps,
		}
	}
	return nil
}
