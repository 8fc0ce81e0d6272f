// Package dvs implements the dynamic voltage/frequency-setting algorithms the
// paper builds on: the cycle-conserving (ccEDF) and look-ahead (laEDF)
// real-time DVS algorithms of Pillai and Shin, extended to periodic task
// graphs as described in Section 4.1 of the paper, plus a no-DVS baseline
// that always runs at the maximum frequency.
//
// A frequency-setting algorithm sees, at every scheduling decision point, a
// summary of all released-but-unfinished task-graph instances (InstanceView)
// and returns the reference frequency fref that guarantees every subsequent
// deadline. The scheduler in internal/core invokes it on every task-graph
// release and on every node completion, exactly as in the paper's Algorithm 1.
//
// laEDF's scan can also be prepared once per decision (LAEDFScan). The
// scheduler does so: the prepared scan answers the decision's own fref and,
// for pUBS, every "what if this candidate completed next" query, each of
// which resumes the scan at the candidate's EDF position instead of
// rescanning every view. LAEDF.SelectFrequency and LAEDFScan share one step
// function, so both give the same bits.
package dvs

import "sort"

// InstanceView is the scheduler's summary of one released, incomplete
// task-graph instance, in EDF order (earliest absolute deadline first).
type InstanceView struct {
	// GraphIndex identifies the task graph within the system.
	GraphIndex int
	// ReleaseTime is the absolute release time of this instance in seconds.
	ReleaseTime float64
	// AbsoluteDeadline is the absolute deadline (release + period) in seconds.
	AbsoluteDeadline float64
	// Period is the graph period (= relative deadline) in seconds.
	Period float64
	// TotalWCET is the static worst-case work of the whole graph in cycles.
	TotalWCET float64
	// AdjustedWCET is the paper's WC_i: the sum of the actual cycles of the
	// nodes of this instance that have already completed plus the worst-case
	// cycles of the nodes that have not, in cycles.
	AdjustedWCET float64
	// RemainingWorstCase is the worst-case work still to be executed for this
	// instance (unfinished nodes at their WCET, minus cycles already executed
	// of the in-progress node), in cycles.
	RemainingWorstCase float64
}

// Algorithm selects the reference frequency at a scheduling decision point.
type Algorithm interface {
	// Name returns a short identifier ("ccEDF", "laEDF", "noDVS").
	Name() string
	// SelectFrequency returns the reference frequency fref in Hz given the
	// current time, the maximum processor frequency and the views of all
	// released incomplete instances. The result is always in [0, fmax]; 0
	// means the processor may idle. Implementations must not retain or
	// modify the slice.
	SelectFrequency(now, fmax float64, instances []InstanceView) float64
}

// sortEDF returns the instances sorted by absolute deadline (stable, earliest
// first) without modifying the input. The scheduler always passes views in
// EDF order already, in which case the input is returned as-is (read-only)
// and no copy is allocated — a stable sort of an already-sorted slice is the
// identity, so the result is unchanged.
func sortEDF(instances []InstanceView) []InstanceView {
	sorted := true
	for i := 1; i < len(instances); i++ {
		if instances[i].AbsoluteDeadline < instances[i-1].AbsoluteDeadline {
			sorted = false
			break
		}
	}
	if sorted {
		return instances
	}
	out := append([]InstanceView(nil), instances...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AbsoluteDeadline < out[j].AbsoluteDeadline })
	return out
}

// clampFrequency limits f to [0, fmax].
func clampFrequency(f, fmax float64) float64 {
	if f < 0 {
		return 0
	}
	if f > fmax {
		return fmax
	}
	return f
}

// NoDVS is the baseline that never scales: the processor always runs at fmax
// while there is pending work (the "EDF, no DVS" row of the paper's Table 2).
type NoDVS struct{}

// NewNoDVS returns the no-DVS baseline.
func NewNoDVS() NoDVS { return NoDVS{} }

// Name implements Algorithm.
func (NoDVS) Name() string { return "noDVS" }

// SelectFrequency implements Algorithm.
func (NoDVS) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 {
		return 0
	}
	return fmax
}

// Static runs at a fixed utilisation-derived frequency: fref = U * fmax with
// U the static worst-case utilisation of the released instances' graphs. It
// corresponds to the classic "static voltage scaling" RT-DVS variant and is
// useful as an additional baseline in ablations.
type Static struct{}

// NewStatic returns the static-scaling baseline.
func NewStatic() Static { return Static{} }

// Name implements Algorithm.
func (Static) Name() string { return "staticEDF" }

// SelectFrequency implements Algorithm.
func (Static) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	var u float64
	for _, in := range instances {
		if in.Period > 0 {
			u += in.TotalWCET / (fmax * in.Period)
		}
	}
	return clampFrequency(u*fmax, fmax)
}

// CCEDF is the cycle-conserving EDF DVS algorithm of Pillai and Shin,
// extended to task graphs (the paper's Algorithm 1): the utilisation is the
// sum over released graphs of WC_i/D_i where WC_i counts completed nodes at
// their actual cycles and pending nodes at their worst case; fref = U * fmax.
type CCEDF struct{}

// NewCCEDF returns the cycle-conserving EDF frequency setter.
func NewCCEDF() CCEDF { return CCEDF{} }

// Name implements Algorithm.
func (CCEDF) Name() string { return "ccEDF" }

// SelectFrequency implements Algorithm.
func (CCEDF) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	var u float64
	for _, in := range instances {
		if in.Period > 0 {
			u += in.AdjustedWCET / (fmax * in.Period)
		}
	}
	return clampFrequency(u*fmax, fmax)
}

// LAEDF is the look-ahead EDF DVS algorithm of Pillai and Shin extended to
// task graphs: it estimates the minimum amount of work that must be completed
// before the earliest deadline so that all later deadlines can still be met
// at full speed, and runs just fast enough to finish that work in time. It is
// more aggressive than CCEDF (runs slower earlier) while still guaranteeing
// all deadlines.
type LAEDF struct{}

// NewLAEDF returns the look-ahead EDF frequency setter.
func NewLAEDF() LAEDF { return LAEDF{} }

// Name implements Algorithm.
func (LAEDF) Name() string { return "laEDF" }

// SelectFrequency implements Algorithm.
func (LAEDF) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	inst := sortEDF(instances)
	dn := inst[0].AbsoluteDeadline
	if dn <= now {
		// The earliest deadline is (numerically) immediate: run flat out.
		return fmax
	}
	// Work in normalised "seconds at fmax" units.
	var u float64
	for i := range inst {
		if inst[i].Period > 0 {
			u += laTerm(&inst[i], fmax)
		}
	}
	s := 0.0
	// Latest deadline first.
	for i := len(inst) - 1; i >= 0; i-- {
		u, s = laStep(u, s, &inst[i], laTerm(&inst[i], fmax), inst[i].RemainingWorstCase, fmax, dn)
	}
	return clampFrequency(s/(dn-now)*fmax, fmax)
}

// laTerm is the static utilisation of view in at fmax; laStep uses it only
// for views with a positive Period.
func laTerm(in *InstanceView, fmax float64) float64 {
	return in.TotalWCET / (fmax * in.Period)
}

// laStep advances laEDF's backward scan over one view: it removes the view's
// static utilisation term from u and adds to s the work x (in seconds at
// fmax) of its remaining worst case that must be done before the earliest
// deadline dn. It is the scan's only arithmetic, shared by
// LAEDF.SelectFrequency and LAEDFScan.
func laStep(u, s float64, in *InstanceView, term, remaining, fmax, dn float64) (float64, float64) {
	cLeft := remaining / fmax
	if in.Period > 0 {
		u -= term
	}
	slack := in.AbsoluteDeadline - dn
	var x float64
	if slack <= 0 {
		// The instance with the earliest deadline: all of its remaining
		// work must be done before dn.
		x = cLeft
	} else {
		x = cLeft - (1-u)*slack
		if x < 0 {
			x = 0
		}
		u += (cLeft - x) / slack
	}
	return u, s + x
}

// LAEDFScan is laEDF's backward scan over one set of views, prepared once so
// that the decision's own frequency and any number of what-if queries reuse
// it. The scan runs from the latest deadline down, and its state (u, s)
// before view k depends only on views k+1..n-1 and the earliest deadline, not
// on the current time or on view k. A query that changes view k's remaining
// worst case therefore resumes at k and re-steps only views k..0.
//
// Every answer is bit-identical to LAEDF.SelectFrequency on the
// correspondingly edited views: the same steps in the same order. The zero
// value is ready for Prepare, and one scan reused across decisions allocates
// only when the number of views grows. A scan aliases the views passed to
// Prepare until the next Prepare; they must not change in between.
type LAEDFScan struct {
	views []InstanceView
	fmax  float64
	dn    float64       // earliest absolute deadline
	state []laScanState // state[k]: the scan state before stepping view k
	s     float64       // s after stepping every view
}

// laScanState is the scan state before one view, plus that view's static
// utilisation term.
type laScanState struct {
	u, s, term float64
}

// Prepare runs the scan over views, which must be in EDF order (earliest
// deadline first, as the scheduler maintains them).
func (p *LAEDFScan) Prepare(fmax float64, views []InstanceView) {
	p.views, p.fmax = views, fmax
	if cap(p.state) < len(views) {
		p.state = make([]laScanState, len(views))
	}
	p.state = p.state[:len(views)]
	if len(views) == 0 || fmax <= 0 {
		return
	}
	p.dn = views[0].AbsoluteDeadline
	var u float64
	for i := range views {
		p.state[i].term = laTerm(&views[i], fmax)
		if views[i].Period > 0 {
			u += p.state[i].term
		}
	}
	s := 0.0
	for i := len(views) - 1; i >= 0; i-- {
		st := &p.state[i]
		st.u, st.s = u, s
		u, s = laStep(u, s, &views[i], st.term, views[i].RemainingWorstCase, fmax, p.dn)
	}
	p.s = s
}

// Frequency returns LAEDF.SelectFrequency(now, fmax, views) for the prepared
// views.
func (p *LAEDFScan) Frequency(now float64) float64 {
	if len(p.views) == 0 || p.fmax <= 0 {
		return 0
	}
	return p.finish(now, p.s)
}

// FrequencyWith returns LAEDF.SelectFrequency(now, fmax, views) for the
// prepared views with view k's RemainingWorstCase replaced by remaining. k
// must index the prepared views.
func (p *LAEDFScan) FrequencyWith(now float64, k int, remaining float64) float64 {
	if p.fmax <= 0 {
		return 0
	}
	if p.dn <= now {
		return p.fmax
	}
	st := &p.state[k]
	u, s := laStep(st.u, st.s, &p.views[k], st.term, remaining, p.fmax, p.dn)
	for i := k - 1; i >= 0; i-- {
		u, s = laStep(u, s, &p.views[i], p.state[i].term, p.views[i].RemainingWorstCase, p.fmax, p.dn)
	}
	return p.finish(now, s)
}

// finish turns the scan's work s into a frequency at time now.
func (p *LAEDFScan) finish(now, s float64) float64 {
	if p.dn <= now {
		// The earliest deadline is (numerically) immediate: run flat out.
		return p.fmax
	}
	return clampFrequency(s/(p.dn-now)*p.fmax, p.fmax)
}
