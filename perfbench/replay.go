package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/runner"
	"battsched/internal/stats"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// The replay re-runs a local workload's per-set pipeline single-threaded
// through the layers' public functions and times each call. It mirrors the
// table2 experiment driver of internal/experiments (same seeds, schemes and
// fold order); the caller checks that its folded cells equal the untraced
// experiments.Run report bit for bit, so the decomposition measures the same
// work as the headline run. A change to that driver that the mirror misses
// fails that check (and the replay tests) instead of silently changing what
// is measured.

// layerCounts are the work counts recorded at the layer boundaries.
type layerCounts struct {
	Systems, Nodes                  int
	CoreRuns, Decisions             int
	OutOfOrder, FeasibilityRejected int
	DeadlineMisses                  int
	CoreAllocs                      uint64
	BatterySims                     int
	AnalyticSims, SteppedSims       int
	Repetitions, SegmentUpdates     int64
}

// cellAcc folds one report cell: the accumulator plus the retained
// (absolute set, value) samples, exactly as the experiment drivers keep them.
type cellAcc struct {
	acc     stats.Accumulator
	sets    []int
	samples []float64
}

func (c *cellAcc) add(set int, x float64) {
	c.acc.Add(x)
	c.sets = append(c.sets, set)
	c.samples = append(c.samples, x)
}

func (c *cellAcc) cell() experiments.Cell {
	return experiments.Cell{State: c.acc.State(), Sets: c.sets, Samples: c.samples}
}

// replayer owns the reused engine and realisation of one replay.
type replayer struct {
	tr     *Tracer
	trace  string
	proc   *processor.Model
	eng    *core.Engine
	uni    *taskgraph.UniformExecution
	exec   *taskgraph.RecordedExecution
	counts layerCounts
	ms     runtime.MemStats
}

func newReplayer(tr *Tracer, trace string) *replayer {
	uni := taskgraph.NewUniformExecution(0.2, 1.0, 0)
	return &replayer{tr: tr, trace: trace, proc: processor.Default(), eng: core.NewEngine(),
		uni: uni, exec: taskgraph.NewRecordedExecution(uni)}
}

// generate builds one task-graph set and restarts the execution realisation
// from its seed.
func (r *replayer) generate(parent int, graphs int, util float64, rng *rand.Rand, seed int64) (*taskgraph.System, error) {
	sp := r.tr.Begin(r.trace, "tgff.GenerateSystem", parent)
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), graphs, util, r.proc.FMax(), rng)
	r.tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.Begin(r.trace, "tgff.RecordedExecution", parent)
	r.uni.Reseed(seed)
	r.exec.Restart(r.uni)
	r.tr.End(sp)
	r.counts.Systems++
	r.counts.Nodes += sys.TotalNodes()
	return sys, nil
}

// mallocs reads the cumulative heap allocation count. ReadMemStats is exact
// (unlike runtime/metrics' span-granular counts) and runs outside the core
// span, so its cost does not inflate the engine's time.
func (r *replayer) mallocs() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.Mallocs
}

// run resets the engine for cfg and runs it.
func (r *replayer) run(parent int, cfg core.Config) (*core.Result, error) {
	a0 := r.mallocs()
	sp := r.tr.Begin(r.trace, "core.Engine.Run", parent)
	err := r.eng.Reset(cfg)
	var res *core.Result
	if err == nil {
		res, err = r.eng.Run()
	}
	r.tr.End(sp)
	r.counts.CoreAllocs += r.mallocs() - a0
	if err != nil {
		return nil, err
	}
	r.counts.CoreRuns++
	r.counts.Decisions += res.SchedulingDecisions
	r.counts.OutOfOrder += res.OutOfOrderExecutions
	r.counts.FeasibilityRejected += res.FeasibilityRejections
	r.counts.DeadlineMisses += res.DeadlineMisses
	return res, nil
}

// simulate runs the battery models against one load profile.
func (r *replayer) simulate(parent int, models []battery.Model, res *core.Result, opts battery.SimulateOptions) ([]battery.Result, error) {
	sp := r.tr.Begin(r.trace, "battery.SimulateBatch", parent)
	before := obs.Sim.Snapshot()
	brs, err := battery.SimulateBatch(models, res.Profile, opts)
	d := obs.Sim.Snapshot().Sub(before)
	r.tr.End(sp)
	if err != nil {
		return nil, err
	}
	r.counts.BatterySims += len(brs)
	r.counts.AnalyticSims += int(d.BatteryAnalytic)
	r.counts.SteppedSims += int(d.BatteryStepped)
	for _, b := range brs {
		r.counts.Repetitions += int64(b.Repetitions)
		r.counts.SegmentUpdates += int64(b.Repetitions) * int64(len(res.Profile.Segments))
	}
	return brs, nil
}

// table2Scheme mirrors one scheduling scheme of Table 2.
type table2Scheme struct {
	key, dvs, prio, ready string
	alg                   func() dvs.Algorithm
	prioFn                func() priority.Function
	policy                core.ReadyPolicy
}

func table2Schemes() []table2Scheme {
	noDVS := func() dvs.Algorithm { return dvs.NewNoDVS() }
	ccEDF := func() dvs.Algorithm { return dvs.NewCCEDF() }
	laEDF := func() dvs.Algorithm { return dvs.NewLAEDF() }
	random := func() priority.Function { return priority.NewRandom() }
	pubs := func() priority.Function { return priority.NewPUBS() }
	return []table2Scheme{
		{"EDF", "None", "Random", "most imminent", noDVS, random, core.MostImminentOnly},
		{"Cycle Conserving", "ccEDF", "Random", "most imminent", ccEDF, random, core.MostImminentOnly},
		{"Look Ahead", "laEDF", "Random", "most imminent", laEDF, random, core.MostImminentOnly},
		{"BAS-1", "laEDF", "pUBS", "most imminent", laEDF, pubs, core.MostImminentOnly},
		{"BAS-2", "laEDF", "pUBS", "all released", laEDF, pubs, core.AllReleased},
	}
}

// replayTable2 replays the table2 experiment of spec and returns its rows.
func (r *replayer) replayTable2(root int, spec experiments.Spec) ([]experiments.ReportRow, error) {
	cfg := experiments.DefaultTable2Config()
	if spec.Quick {
		cfg = experiments.QuickTable2Config()
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Sets > 0 {
		cfg.Sets = spec.Sets
	}
	if spec.Utilization > 0 {
		cfg.Utilization = spec.Utilization
	}
	if spec.Battery != "" {
		cfg.BatteryName = spec.Battery
	}
	factory, err := experiments.NamedBatteryFactory(cfg.BatteryName)
	if err != nil {
		return nil, err
	}
	models := []battery.Model{factory()}
	rec := core.NewProfileRecorder()
	schemes := table2Schemes()
	type agg struct{ charge, life, energy, current cellAcc }
	aggs := make([]agg, len(schemes))
	type cellVals struct{ charge, life, energy, current float64 }
	cells := make([]cellVals, len(schemes))
	for set := 0; set < cfg.Sets; set++ {
		setSpan := r.tr.Begin(r.trace, "replay.set", root)
		setSeed := runner.SeedFor(cfg.Seed, int64(set))
		sys, err := r.generate(setSpan, cfg.GraphsPerSet, cfg.Utilization, rand.New(rand.NewSource(setSeed)), setSeed)
		if err != nil {
			return nil, err
		}
		for i, s := range schemes {
			if i > 0 {
				r.exec.Replay()
			}
			rec.Reset()
			res, err := r.run(setSpan, core.Config{
				System:          sys,
				Processor:       r.proc,
				DVS:             s.alg(),
				Priority:        s.prioFn(),
				ReadyPolicy:     s.policy,
				FrequencyMode:   core.DiscreteFrequency,
				OracleEstimates: spec.Oracle,
				Execution:       r.exec,
				Hyperperiods:    cfg.Hyperperiods,
				Seed:            setSeed,
				Observer:        rec,
			})
			if err != nil {
				return nil, err
			}
			brs, err := r.simulate(setSpan, models, res, battery.SimulateOptions{MaxTime: cfg.MaxBatteryHours * 3600})
			if err != nil {
				return nil, err
			}
			cells[i] = cellVals{
				charge:  brs[0].DeliveredMAh(),
				life:    brs[0].LifetimeMinutes(),
				energy:  res.EnergyBattery / float64(cfg.Hyperperiods),
				current: res.Profile.AverageCurrent(),
			}
		}
		sp := r.tr.Begin(r.trace, "stats.Accumulator", setSpan)
		for i, c := range cells {
			aggs[i].charge.add(set, c.charge)
			aggs[i].life.add(set, c.life)
			aggs[i].energy.add(set, c.energy)
			aggs[i].current.add(set, c.current)
		}
		r.tr.End(sp)
		r.tr.End(setSpan)
	}
	rows := make([]experiments.ReportRow, len(schemes))
	for i, s := range schemes {
		rows[i] = experiments.ReportRow{
			Key:    s.key,
			Labels: map[string]string{"dvs": s.dvs, "priority": s.prio, "ready_list": s.ready},
			Cells: map[string]experiments.Cell{
				"charge_mah":    aggs[i].charge.cell(),
				"life_min":      aggs[i].life.cell(),
				"energy_j":      aggs[i].energy.cell(),
				"avg_current_a": aggs[i].current.cell(),
			},
		}
	}
	return rows, nil
}

// replayed is the outcome of one replay.
type replayed struct {
	Artifact []byte      // the replay's report, encoded like the served artifacts
	Counts   layerCounts // work counts at the layer boundaries
	WallS    float64     // the replay's root span
}

// replay re-runs experiment name with spec and encodes its report with the
// reference report's configuration fingerprint (Meta), so the artifact bytes
// equal the reference artifact exactly when every folded cell does.
func replay(tr *Tracer, trace, name string, spec experiments.Spec, ref *experiments.Report) (replayed, error) {
	r := newReplayer(tr, trace)
	root := tr.Begin(trace, "replay."+name, 0)
	var rows []experiments.ReportRow
	var err error
	switch name {
	case "table2":
		rows, err = r.replayTable2(root, spec)
	default:
		err = fmt.Errorf("no replay for experiment %q", name)
	}
	if err != nil {
		return replayed{}, err
	}
	rep := &experiments.Report{Version: experiments.ReportVersion, Experiment: name, Meta: ref.Meta, Rows: rows}
	var buf bytes.Buffer
	sp := tr.Begin(trace, "experiments.WriteArtifact", root)
	err = experiments.WriteArtifact(&buf, []*experiments.Report{rep})
	tr.End(sp)
	tr.End(root)
	if err != nil {
		return replayed{}, err
	}
	out := replayed{Artifact: buf.Bytes(), Counts: r.counts}
	if tr != nil {
		out.WallS = tr.Spans()[root-1].Dur()
	}
	return out, nil
}
