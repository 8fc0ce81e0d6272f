package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
)

// localWorkload is an in-process experiments.Run workload. Its inputs form a
// pool of experiment seeds 1..pool, each with a reference rendering
// committed under testdata/ref. Call i of a run uses pool entry
// (seed + i) mod pool, and a run makes whole cycles through the pool, so
// every run measures the same inputs and the seed decides the order. The
// cost of one input varies by up to 13 % (table2's battery work follows each
// set's lifetime); a run on a single input would turn that into run-to-run
// spread.
type localWorkload struct {
	experiment string
	pool       int
	// cycleSeconds is the nominal time of one cycle through the pool. A run
	// makes ceil(--seconds / cycleSeconds) cycles: the call count follows
	// from --seconds alone, never from how fast the code runs, so a faster
	// program measures the same calls and the slowest of them stays the
	// slowest of the same number.
	cycleSeconds float64
	spec         func(specSeed int64) experiments.Spec
}

var localWorkloads = map[string]localWorkload{
	// Three ~4.7 s calls per cycle; --seconds 36 makes three cycles.
	"table2_stochastic": {"table2", 3, 14, func(s int64) experiments.Spec {
		return experiments.Spec{Seed: s, Battery: "stochastic"}
	}},
}

// calls is the number of calls a run of the given length makes.
func (lw localWorkload) calls(seconds float64) int {
	return lw.pool * int(math.Max(1, math.Ceil(seconds/lw.cycleSeconds)))
}

// specSeed is the experiment seed of call i of a run.
func (lw localWorkload) specSeed(seed int64, i int) int64 {
	p := int64(lw.pool)
	return ((seed+int64(i))%p+p)%p + 1
}

// refPath is the reference rendering of one workload input.
func refPath(refs, workload string, specSeed int64) string {
	return filepath.Join(refs, workload, fmt.Sprintf("seed-%02d.txt", specSeed))
}

// localInputs resolves a local workload and loads its reference renderings,
// keyed by experiment seed: the work done before experiments.Run is entered.
func localInputs(o options) (localWorkload, map[int64]string, error) {
	lw, ok := localWorkloads[o.workload]
	if !ok {
		return lw, nil, fmt.Errorf("unknown local workload %q", o.workload)
	}
	if _, err := experiments.Lookup(lw.experiment); err != nil {
		return lw, nil, err
	}
	refs := make(map[int64]string, lw.pool)
	for s := int64(1); s <= int64(lw.pool); s++ {
		ref, err := os.ReadFile(refPath(o.refs, o.workload, s))
		if err != nil {
			return lw, nil, fmt.Errorf("reference rendering: %w", err)
		}
		refs[s] = string(ref)
	}
	return lw, refs, nil
}

// localSpec is the spec of call i of a run.
func localSpec(lw localWorkload, seed int64, i int) experiments.Spec {
	spec := lw.spec(lw.specSeed(seed, i))
	spec.Parallel = parallel
	return spec
}

// artifact encodes a report exactly as the daemon serves it.
func artifact(rep *experiments.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.WriteArtifact(&buf, []*experiments.Report{rep})
	return buf.Bytes(), err
}

// runLocal measures a local workload.
func runLocal(ctx context.Context, o options) (*outcome, error) {
	setup, err := measureSetup(ctx, o)
	if err != nil {
		return nil, err
	}
	lw, refs, err := localInputs(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{"setup_s": median(setup)}}
	out.notef("setup_s samples %v", setup)
	if o.trace {
		spec := localSpec(lw, o.seed, 0)
		out.notef("experiment %s, spec %+v", lw.experiment, spec)
		return out, traceLocal(ctx, o, lw, spec, refs[spec.Seed], out)
	}
	// One call is a request: the metrics are medians over the run's calls.
	var walls, cpus []float64
	var seeds []int64
	for i := 0; i < lw.calls(o.seconds); i++ {
		spec := localSpec(lw, o.seed, i)
		seeds = append(seeds, spec.Seed)
		c0, t0 := cpuSeconds(), time.Now()
		rep, err := experiments.Run(ctx, lw.experiment, spec)
		if err == nil {
			err = checkRendering(rep, refs[spec.Seed])
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		out.attempted++
		if err != nil {
			out.failed++
			out.failf("call %d (experiment seed %d): %v", i, spec.Seed, err)
		}
	}
	tailV, level := tail(walls)
	out.values["wall_s"] = median(walls)
	out.values["cpu_s"] = median(cpus)
	out.values["latency_p50_ms"] = median(walls) * 1e3
	out.values["latency_tail_ms"] = tailV * 1e3
	out.values["peak_rss_mb"] = peakRSSMB()
	out.notef("experiment %s, %+v, experiment seeds %v", lw.experiment, localSpec(lw, o.seed, 0), seeds)
	out.notef("%d calls; latency_tail_ms is p%g of %d samples; call walls %.3f", len(walls), level, len(walls), walls)
	return out, nil
}

// checkRendering compares a report's table with the reference rendering.
func checkRendering(rep *experiments.Report, ref string) error {
	got, err := experiments.FormatReport(rep)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("table differs from the reference rendering:\n%s\nwant:\n%s", got, ref)
	}
	return nil
}

// crossCheck compares the replay's counts with the obs.Sim deltas around
// experiments.Run.
func crossCheck(c layerCounts, d obs.SimSnapshot) error {
	if uint64(c.CoreRuns) != d.EngineRuns || uint64(c.AnalyticSims) != d.BatteryAnalytic || uint64(c.SteppedSims) != d.BatteryStepped {
		return fmt.Errorf("replay counts (engine runs %d, analytic %d, stepped %d) differ from the experiments.Run deltas (%d, %d, %d)",
			c.CoreRuns, c.AnalyticSims, c.SteppedSims, d.EngineRuns, d.BatteryAnalytic, d.BatteryStepped)
	}
	return nil
}

// traceLocal runs the local workload's traced measurement: experiments.Run at
// Parallel 2 (the headline run) and at Parallel 1 (the comparison for the
// single-threaded replay), then the traced replay, whose artifact must equal
// the headline run's byte for byte.
func traceLocal(ctx context.Context, o options, lw localWorkload, spec experiments.Spec, ref string, out *outcome) error {
	check := func(what string, err error) {
		out.attempted++
		if err != nil {
			out.failed++
			out.failf("%s: %v", what, err)
		}
	}
	before := obs.Sim.Snapshot()
	a0, gc0 := goCounters()
	t0 := time.Now()
	rep, err := experiments.Run(ctx, lw.experiment, spec)
	wall := time.Since(t0).Seconds()
	a1, gc1 := goCounters()
	delta := obs.Sim.Snapshot().Sub(before)
	if err != nil {
		return err
	}
	check("experiments.Run", checkRendering(rep, ref))
	want, err := artifact(rep)
	if err != nil {
		return err
	}

	seq := spec
	seq.Parallel = 1
	t0 = time.Now()
	rep1, err := experiments.Run(ctx, lw.experiment, seq)
	wall1 := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	check("experiments.Run at Parallel 1", checkRendering(rep1, ref))

	tr := NewTracer()
	trace := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	rp, err := replay(tr, trace, lw.experiment, spec, rep)
	if err != nil {
		return err
	}
	err = nil
	if !bytes.Equal(rp.Artifact, want) {
		err = fmt.Errorf("replay artifact differs from the experiments.Run artifact")
	}
	check("replay", err)
	check("replay counts", crossCheck(rp.Counts, delta))

	spans := tr.Spans()
	path := tracePath(o)
	if err := WriteSpans(path, spans); err != nil {
		return err
	}
	busy := LayerBusy(spans)
	c := rp.Counts
	v := out.values
	v["battery.busy_s"] = busy["battery"]
	v["battery.sims"] = float64(c.BatterySims)
	v["battery.analytic_sims"] = float64(c.AnalyticSims)
	v["battery.stepped_sims"] = float64(c.SteppedSims)
	v["battery.repetitions"] = float64(c.Repetitions)
	v["battery.segment_updates"] = float64(c.SegmentUpdates)
	v["battery.ns_per_segment_update"] = perUnit(busy["battery"]*1e9, float64(c.SegmentUpdates))
	v["core.busy_s"] = busy["core"]
	v["core.runs"] = float64(c.CoreRuns)
	v["core.decisions"] = float64(c.Decisions)
	v["core.ns_per_decision"] = perUnit(busy["core"]*1e9, float64(c.Decisions))
	v["core.allocs_per_run"] = perUnit(float64(c.CoreAllocs), float64(c.CoreRuns))
	v["core.out_of_order"] = float64(c.OutOfOrder)
	v["core.feasibility_rejections"] = float64(c.FeasibilityRejected)
	v["core.deadline_misses"] = float64(c.DeadlineMisses)
	v["tgff.busy_s"] = busy["tgff"]
	v["tgff.systems"] = float64(c.Systems)
	v["tgff.nodes"] = float64(c.Nodes)
	v["stats.busy_s"] = busy["stats"]
	v["experiments.encode_s"] = busy["experiments"]
	v["experiments.artifact_bytes"] = float64(len(rp.Artifact))
	// The serial busy time is the untraced Parallel 1 run of the same work:
	// the replay's own wall carries the tracer's cost.
	v["runner.parallel_efficiency"] = wall1 / (wall * float64(spec.Parallel))
	v["go.alloc_mb"] = float64(a1-a0) / (1 << 20)
	v["go.gc_cycles"] = float64(gc1 - gc0)
	covered := 0.0
	for layer, s := range busy {
		if layer != "replay" {
			covered += s
		}
	}
	v["trace.coverage"] = covered / rp.WallS
	v["trace.overhead_frac"] = rp.WallS/wall1 - 1
	v["wall_s"], v["wall_s_parallel1"], v["replay_wall_s"] = wall, wall1, rp.WallS
	for _, layer := range []string{"battery", "core", "tgff", "stats", "experiments"} {
		v["share."+layer] = busy[layer] / rp.WallS
	}
	out.notef("traced replay of %d spans written to %s", len(spans), path)
	return nil
}

// perUnit divides, reading 0 when there are no units.
func perUnit(total, units float64) float64 {
	if units == 0 {
		return 0
	}
	return total / units
}
