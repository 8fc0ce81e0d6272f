package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// refCandSorter is the stable sort by (value, EDF position, node) that choose
// replaced with repeated minimum selection; it is kept here as the reference.
type refCandSorter []candidateRef

func (s refCandSorter) Len() int      { return len(s) }
func (s refCandSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s refCandSorter) Less(i, j int) bool {
	a, b := s[i], s[j]
	if a.value != b.value {
		return a.value < b.value
	}
	if a.cand.EDFPosition != b.cand.EDFPosition {
		return a.cand.EDFPosition < b.cand.EDFPosition
	}
	return a.cand.Node < b.cand.Node
}

// referenceChoose is the sort-and-scan selection: stable-sort the valued
// candidates, take the first imminent or feasible one (counting out-of-order
// executions and feasibility rejections into res), and fall back to the first
// imminent candidate, or the first candidate when none is imminent.
func referenceChoose(cands []candidateRef, views []dvs.InstanceView, now, effFreq float64, res *Result) candidateRef {
	sorted := append(refCandSorter(nil), cands...)
	sort.Stable(sorted)
	for _, c := range sorted {
		if c.imminent {
			return c
		}
		if feasible(c.cand.RemainingWCET, c.cand.EDFPosition, views, now, effFreq) {
			res.OutOfOrderExecutions++
			return c
		}
		res.FeasibilityRejections++
	}
	for _, c := range sorted {
		if c.imminent {
			return c
		}
	}
	return sorted[0]
}

// tablePriority assigns each (EDF position, node) a fixed value.
type tablePriority map[[2]int]float64

func (tablePriority) Name() string { return "table" }
func (p tablePriority) Priority(c priority.Candidate, _ *priority.Context) float64 {
	return p[[2]int{c.EDFPosition, c.Node}]
}

// TestChooseMatchesSortAndScan drives choose on random candidate sets with
// forced value ties (signed zeros included), mixed imminent, feasible and
// infeasible candidates and sets without any imminent candidate, and
// requires the chosen candidate and the out-of-order/rejection counts of the
// sort-and-scan reference.
func TestChooseMatchesSortAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{math.Copysign(0, -1), 0, 1, 2, 1e30}
	var rejections, outOfOrder, fallbacks int
	for trial := 0; trial < 5000; trial++ {
		positions := 1 + rng.Intn(6)
		views := make([]dvs.InstanceView, positions)
		deadline := 0.0
		for j := range views {
			deadline += 0.005 + rng.Float64()*0.05
			views[j] = dvs.InstanceView{GraphIndex: j, AbsoluteDeadline: deadline, RemainingWorstCase: rng.Float64() * 2e7}
		}
		effFreq := 1e8 + rng.Float64()*9e8
		imminentPos := rng.Intn(positions + 1) // positions: no imminent candidate
		tab := tablePriority{}
		var cands []candidateRef
		for pos := 0; pos < positions; pos++ {
			for node := 0; node < 8; node++ {
				if rng.Intn(3) != 0 {
					continue
				}
				v := values[rng.Intn(len(values))]
				if rng.Intn(4) == 0 {
					v = rng.Float64()
				}
				tab[[2]int{pos, node}] = v
				cands = append(cands, candidateRef{
					imminent: pos == imminentPos,
					cand:     priority.Candidate{EDFPosition: pos, Node: node, RemainingWCET: rng.Float64() * 1e7},
				})
			}
		}
		if len(cands) == 0 {
			continue
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

		valued := append([]candidateRef(nil), cands...)
		for i := range valued {
			valued[i].value = tab[[2]int{valued[i].cand.EDFPosition, valued[i].cand.Node}]
		}
		wantRes := &Result{}
		want := referenceChoose(valued, views, 0, effFreq, wantRes)

		e := &engine{cfg: Config{Priority: tab, LocalSpeedModel: true}, res: &Result{}, fmax: 1e9}
		got := e.choose(cands, views, effFreq)
		if got.cand.EDFPosition != want.cand.EDFPosition || got.cand.Node != want.cand.Node {
			t.Fatalf("trial %d: chose (pos %d, node %d), reference (pos %d, node %d)",
				trial, got.cand.EDFPosition, got.cand.Node, want.cand.EDFPosition, want.cand.Node)
		}
		if e.res.OutOfOrderExecutions != wantRes.OutOfOrderExecutions || e.res.FeasibilityRejections != wantRes.FeasibilityRejections {
			t.Fatalf("trial %d: out-of-order %d, rejections %d; reference %d, %d", trial,
				e.res.OutOfOrderExecutions, e.res.FeasibilityRejections, wantRes.OutOfOrderExecutions, wantRes.FeasibilityRejections)
		}
		rejections += wantRes.FeasibilityRejections
		outOfOrder += wantRes.OutOfOrderExecutions
		if !want.imminent && imminentPos == positions {
			fallbacks++
		}
	}
	// The random sets must reach every branch of the selection.
	if rejections == 0 || outOfOrder == 0 || fallbacks == 0 {
		t.Fatalf("coverage: %d rejections, %d out-of-order picks, %d no-imminent sets", rejections, outOfOrder, fallbacks)
	}
}

// copyFrequencyAfter is the copy-based s_{o,k} evaluation evalFrequencyAfter
// replaced: the hypothetical views are a fresh copy of views with the
// candidate's view updated.
func copyFrequencyAfter(e *engine, views []dvs.InstanceView, c priority.Candidate, assumedCycles float64) float64 {
	hyp := append([]dvs.InstanceView(nil), views...)
	if c.EDFPosition >= 0 && c.EDFPosition < len(hyp) {
		v := hyp[c.EDFPosition]
		v.AdjustedWCET = v.AdjustedWCET - c.RemainingWCET + assumedCycles
		if v.AdjustedWCET < 0 {
			v.AdjustedWCET = 0
		}
		v.RemainingWorstCase -= c.RemainingWCET
		if v.RemainingWorstCase < 0 {
			v.RemainingWorstCase = 0
		}
		hyp[c.EDFPosition] = v
	}
	then := e.now
	if e.fAfterFreq > 0 {
		then += assumedCycles / e.fAfterFreq
	}
	return e.cfg.DVS.SelectFrequency(then, e.fmax, hyp)
}

// sameViews reports whether a and b are bit-identical.
func sameViews(a, b []dvs.InstanceView) bool {
	if len(a) != len(b) {
		return false
	}
	bits := func(v dvs.InstanceView) [7]uint64 {
		return [7]uint64{uint64(v.GraphIndex), math.Float64bits(v.ReleaseTime), math.Float64bits(v.AbsoluteDeadline),
			math.Float64bits(v.Period), math.Float64bits(v.TotalWCET), math.Float64bits(v.AdjustedWCET), math.Float64bits(v.RemainingWorstCase)}
	}
	for i := range a {
		if bits(a[i]) != bits(b[i]) {
			return false
		}
	}
	return true
}

// frequencyAfterCheck wraps a priority function. On every call it evaluates
// ctx.FrequencyAfter for a few assumed cycle counts and requires each value to
// equal the copy-based reference, with the engine's views unchanged after the
// call.
type frequencyAfterCheck struct {
	t     *testing.T
	e     *engine
	inner priority.Function
	evals int
}

func (p *frequencyAfterCheck) Name() string { return p.inner.Name() }

func (p *frequencyAfterCheck) Priority(c priority.Candidate, ctx *priority.Context) float64 {
	if ctx.FrequencyAfter != nil {
		for _, assumed := range []float64{c.EstimatedActual, c.RemainingWCET, 0} {
			before := append([]dvs.InstanceView(nil), p.e.views...)
			want := copyFrequencyAfter(p.e, before, c, assumed)
			got := ctx.FrequencyAfter(c, assumed)
			if math.Float64bits(got) != math.Float64bits(want) {
				p.t.Fatalf("FrequencyAfter(pos %d, node %d, %g) = %v, copy-based reference %v", c.EDFPosition, c.Node, assumed, got, want)
			}
			if !sameViews(before, p.e.views) {
				p.t.Fatalf("FrequencyAfter(pos %d, node %d, %g) left the views modified", c.EDFPosition, c.Node, assumed)
			}
			p.evals++
		}
	}
	return p.inner.Priority(c, ctx)
}

// TestPUBSFrequencyAfterMatchesCopyAndRestoresViews runs pUBS over all
// released graphs under each DVS algorithm, stepping the engine's decision
// loop by hand so that every choose can be bracketed: each FrequencyAfter
// value must equal the copy-based reference, and the views must be
// bit-identical before and after choose. The hand-stepped run must also
// reproduce Run's result exactly.
func TestPUBSFrequencyAfterMatchesCopyAndRestoresViews(t *testing.T) {
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, 1e9, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	wide := wideJoinSystem()
	for _, alg := range []dvs.Algorithm{dvs.NewLAEDF(), dvs.NewCCEDF(), dvs.NewStatic(), dvs.NewNoDVS()} {
		t.Run(alg.Name(), func(t *testing.T) { steppedRunChecks(t, sys, alg) })
		t.Run("wide-"+alg.Name(), func(t *testing.T) { steppedRunChecks(t, wide, alg) })
	}
}

// steppedRunChecks is TestPUBSFrequencyAfterMatchesCopyAndRestoresViews for
// one system and DVS algorithm. Each decision it also checks the maintained
// views against views built afresh, and the ready sets against the nodes.
func steppedRunChecks(t *testing.T, sys *taskgraph.System, alg dvs.Algorithm) {
	cfg := Config{
		System:        sys,
		DVS:           alg,
		Priority:      priority.NewPUBS(),
		ReadyPolicy:   AllReleased,
		FrequencyMode: DiscreteFrequency,
		Hyperperiods:  1,
		Seed:          3,
		Observer:      Discard,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	en := NewEngine()
	check := &frequencyAfterCheck{t: t, e: &en.e, inner: cfg.Priority}
	cfg.Priority = check
	if err := en.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	e := &en.e
	for {
		e.releaseDue()
		e.recordMisses()
		e.dropCompleted()
		if e.now >= e.horiz-timeEpsilon && !e.hasPendingWork() {
			break
		}
		views := e.views
		if !sameViews(views, freshViews(e)) {
			t.Fatalf("decision %d: maintained views differ from views built afresh", e.res.SchedulingDecisions)
		}
		checkReadySets(t, e)
		effFreq, segments := e.realize(e.selectFrequency())
		cands := e.candidates()
		e.res.SchedulingDecisions++
		if len(cands) == 0 {
			next := e.nextEvent()
			if next <= e.now+timeEpsilon {
				break
			}
			e.idle(next - e.now)
			continue
		}
		before := append([]dvs.InstanceView(nil), views...)
		chosen := e.choose(cands, views, effFreq)
		if !sameViews(before, views) {
			t.Fatalf("decision %d: choose modified the views", e.res.SchedulingDecisions)
		}
		e.execute(chosen, effFreq, segments)
	}
	e.finalize()
	if check.evals == 0 {
		t.Fatal("no FrequencyAfter evaluations")
	}
	equalResults(t, alg.Name(), want, e.res)
}

// freshViews builds the views of the released list from scratch, as the
// engine did once per decision before it maintained them incrementally.
func freshViews(e *engine) []dvs.InstanceView {
	var out []dvs.InstanceView
	for _, in := range e.released {
		gi := in.graphIndex
		out = append(out, dvs.InstanceView{
			GraphIndex:         gi,
			ReleaseTime:        in.release,
			AbsoluteDeadline:   in.deadline,
			Period:             e.sys.Graphs[gi].Period,
			TotalWCET:          e.sys.Graphs[gi].TotalWCET(),
			AdjustedWCET:       in.adjustedWC,
			RemainingWorstCase: in.remainingWorstCase(),
		})
	}
	return out
}

// checkReadySets requires every released instance's ready bit of a node to be
// set exactly when the node is not done and all its predecessors are.
func checkReadySets(t *testing.T, e *engine) {
	t.Helper()
	for pos, in := range e.released {
		for ni := range in.nodes {
			want := !in.nodes[ni].done && in.nodes[ni].predsLeft == 0
			if got := in.ready[ni>>6]&(1<<(uint(ni)&63)) != 0; got != want {
				t.Fatalf("decision %d: instance %d node %d ready bit %v, want %v", e.res.SchedulingDecisions, pos, ni, got, want)
			}
		}
	}
}
