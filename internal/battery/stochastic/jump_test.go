package stochastic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/profile"
	"battsched/internal/runner"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// This file checks the k-repetition jump of repOp.Advance against a
// reference that applies one repetition at a time: the per-repetition
// survival predicate and update the operator used before the jump, kept here
// as the specification the jump must reproduce.

// refSeg holds the per-segment constants of one reference repetition.
type refSeg struct {
	demand, recFactor, decay       float64
	tail, tailDem, tailRec, decay2 float64
}

// refOp applies one repetition at a time, threading the recovery
// probability through the segments.
type refOp struct {
	b                        *Battery
	segs                     []refSeg
	totalDemand, maxStepDem  float64
	recPerProb, stepRecCoeff float64
}

func newRefOp(b *Battery, p *profile.Profile) *refOp {
	h := b.estep
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	o := &refOp{b: b, stepRecCoeff: b.params.MaxCurrent * h}
	for _, sg := range p.Segments {
		cur := math.Max(sg.Current, 0)
		slots := int(math.Floor(sg.Duration / h))
		tail := sg.Duration - float64(slots)*h
		if tail <= 1e-12 {
			tail = 0
		}
		idle := 1 - math.Min(cur/b.params.MaxCurrent, 1)
		x := lambda * cur * h
		rs := refSeg{
			demand:    float64(slots) * cur * h,
			recFactor: geomSum(idle*b.params.MaxCurrent*h, x, float64(slots)),
			decay:     math.Exp(-x * float64(slots)),
			tail:      tail,
			tailDem:   cur * tail,
			tailRec:   idle * b.params.MaxCurrent * tail,
			decay2:    math.Exp(-lambda * cur * tail),
		}
		o.segs = append(o.segs, rs)
		o.totalDemand += rs.demand + rs.tailDem
		o.maxStepDem = math.Max(o.maxStepDem, cur*h)
		o.recPerProb += idle * b.params.MaxCurrent * sg.Duration
	}
	return o
}

// margins returns the two survival margins of the next repetition; it is
// provably survivable when both exceed prefixSlack.
func (o *refOp) margins() (avail, bound float64) {
	b := o.b
	return b.available - o.totalDemand - o.maxStepDem,
		b.bound - b.recoveryProbability()*(o.recPerProb+o.stepRecCoeff)
}

func (o *refOp) canAdvance() bool {
	if !o.b.alive || o.b.params.MonteCarlo {
		return false
	}
	ma, mb := o.margins()
	return ma > prefixSlack && mb > prefixSlack
}

func (o *refOp) advance() {
	b := o.b
	p := b.recoveryProbability()
	for _, sg := range o.segs {
		rec := p * sg.recFactor
		b.available += rec - sg.demand
		b.bound -= rec
		b.delivered += sg.demand
		p *= sg.decay
		if sg.tail > 0 {
			rec = p * sg.tailRec
			b.available += rec - sg.tailDem
			b.bound -= rec
			b.delivered += sg.tailDem
			p *= sg.decay2
		}
	}
}

// refSimulate is the analytic driver with one reference repetition per loop
// iteration.
func refSimulate(b *Battery, p *profile.Profile, maxTime float64) battery.Result {
	b.Reset()
	op := newRefOp(b, p)
	var res battery.Result
	t, period := 0.0, p.Duration()
	for t < maxTime {
		if t+period <= maxTime && op.canAdvance() {
			op.advance()
			t += period
			res.Repetitions++
			continue
		}
		completed := true
		for _, seg := range p.Segments {
			dt := seg.Duration
			if t+dt > maxTime {
				dt, completed = maxTime-t, false
				if dt <= 0 {
					break
				}
			}
			sustained, alive := b.DrainSegment(seg.Current, dt)
			t += sustained
			if !alive {
				return battery.Result{Lifetime: t, DeliveredCharge: b.delivered, Exhausted: true, Repetitions: res.Repetitions}
			}
			if !completed {
				break
			}
		}
		if !completed {
			break
		}
		res.Repetitions++
	}
	res.Lifetime, res.DeliveredCharge = t, b.delivered
	return res
}

// table2Profile is the load profile of one full-size paper Table 2 set (5
// graphs at 70 % utilisation, 4 hyperperiods, discrete frequencies) under
// the given scheme: "EDF", "ccEDF" or "BAS-2".
func table2Profile(t testing.TB, set int64, scheme string) *profile.Profile {
	t.Helper()
	proc := processor.Default()
	seed := runner.SeedFor(1, set)
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.70, proc.FMax(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		System:        sys,
		Processor:     proc,
		DVS:           dvs.NewNoDVS(),
		Priority:      priority.NewRandom(),
		ReadyPolicy:   core.MostImminentOnly,
		FrequencyMode: core.DiscreteFrequency,
		Execution:     taskgraph.NewUniformExecution(0.2, 1.0, seed),
		Hyperperiods:  4,
		Seed:          seed,
		Observer:      core.NewProfileRecorder(),
	}
	switch scheme {
	case "ccEDF":
		cfg.DVS = dvs.NewCCEDF()
	case "BAS-2":
		cfg.DVS, cfg.Priority, cfg.ReadyPolicy = dvs.NewLAEDF(), priority.NewPUBS(), core.AllReleased
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Profile
}

// jumpProfiles returns real Table 2 profiles (32 to 566 segments, 4k to 26k
// repetitions to exhaustion, periods of 0.8 and 1.6 s) and synthetic ones:
// the bench shape, a square wave, a profile with a zero-current segment and
// one whose peak exceeds the reference current (no recovery in that segment).
func jumpProfiles(t testing.TB) map[string]*profile.Profile {
	ps := map[string]*profile.Profile{}
	for _, c := range []struct {
		set    int64
		scheme string
	}{{0, "EDF"}, {0, "BAS-2"}, {1, "BAS-2"}, {2, "ccEDF"}, {2, "EDF"}} {
		ps[fmt.Sprintf("table2-set%d-%s", c.set, c.scheme)] = table2Profile(t, c.set, c.scheme)
	}
	add := func(name string, segs ...[2]float64) {
		p := profile.New()
		for _, s := range segs {
			p.Append(s[0], s[1])
		}
		ps[name] = p
	}
	add("bench", [2]float64{33.4, 1.2}, [2]float64{21.7, 0.4}, [2]float64{5.1, 0.01})
	add("square", [2]float64{3, 1.9}, [2]float64{7, 0.05})
	add("idle-gap", [2]float64{12.25, 0.8}, [2]float64{4, 0}, [2]float64{0.5, 2.2})
	add("over-max", [2]float64{2, 3.1}, [2]float64{9.5, 0.3})
	return ps
}

// jumpParams are the default parameters and the slot-exact step.
func jumpParams() map[string]Params {
	slot := Default().Params()
	slot.ExpectedStep = slot.SlotDuration
	return map[string]Params{"default": Default().Params(), "slot-step": slot}
}

func mustNew(t testing.TB, ps Params) *Battery {
	t.Helper()
	b, err := New(ps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func relErr(a, b float64) float64 {
	if s := math.Max(math.Abs(a), math.Abs(b)); s > 0 {
		return math.Abs(a-b) / s
	}
	return 0
}

// TestRepetitionJumpMatchesReference: whole lifetime simulations through the
// jump agree with the one-repetition reference to 1e-9 relative, with equal
// repetition counts and exhaustion flags, both to exhaustion and under a
// horizon cap that lands mid-run.
func TestRepetitionJumpMatchesReference(t *testing.T) {
	profiles := jumpProfiles(t)
	for pname, ps := range jumpParams() {
		for name, p := range profiles {
			full := refSimulate(mustNew(t, ps), p, 72*3600)
			if !full.Exhausted || full.Repetitions < 10 {
				t.Fatalf("%s/%s: reference run %+v is not a multi-repetition lifetime", pname, name, full)
			}
			for _, maxTime := range []float64{72 * 3600, 0.37 * full.Lifetime} {
				ref := full
				if maxTime != 72*3600 {
					ref = refSimulate(mustNew(t, ps), p, maxTime)
				}
				got, err := battery.SimulateUntilExhausted(mustNew(t, ps), p, battery.SimulateOptions{MaxTime: maxTime})
				if err != nil {
					t.Fatal(err)
				}
				if got.Repetitions != ref.Repetitions || got.Exhausted != ref.Exhausted {
					t.Errorf("%s/%s horizon %v: jump %+v vs reference %+v", pname, name, maxTime, got, ref)
				}
				if d := relErr(got.Lifetime, ref.Lifetime); d > 1e-9 {
					t.Errorf("%s/%s horizon %v: lifetime %v vs %v (rel %.2e)", pname, name, maxTime, got.Lifetime, ref.Lifetime, d)
				}
				if d := relErr(got.DeliveredCharge, ref.DeliveredCharge); d > 1e-9 {
					t.Errorf("%s/%s horizon %v: delivered %v vs %v (rel %.2e)", pname, name, maxTime, got.DeliveredCharge, ref.DeliveredCharge, d)
				}
			}
		}
	}
}

// TestRepetitionJumpCoversOnlyProvenRepetitions applies single jumps from
// states along a reference lifetime — the fresh battery, mid-life, and the
// last repetitions before the survival predicate first fails (close to
// death) — with limits 1, 2 and unbounded. Every repetition the jump covers
// must satisfy the per-repetition predicate along the reference trajectory,
// the end states must agree, and a jump that stops short of its limit must
// stop where the reference predicate fails (up to closed-form rounding).
func TestRepetitionJumpCoversOnlyProvenRepetitions(t *testing.T) {
	const stateTol = 1e-9
	for pname, ps := range jumpParams() {
		for name, p := range jumpProfiles(t) {
			// Walk the reference until its predicate first fails; states[j]
			// is the state before repetition j, the last one the state where
			// the predicate fails.
			walk := mustNew(t, ps)
			ref := newRefOp(walk, p)
			var states []Battery
			for ref.canAdvance() {
				states = append(states, *walk)
				ref.advance()
			}
			states = append(states, *walk)
			n := len(states) - 1
			if n < 10 {
				t.Fatalf("%s/%s: reference advanced only %d repetitions", pname, name, n)
			}
			scale := ps.MaxCoulombs * stateTol
			for _, start := range []int{0, n / 2, n - 4, n - 3, n - 2, n - 1} {
				for _, limit := range []int{1, 2, math.MaxInt32} {
					jb := states[start]
					k := jb.RepetitionOperator(p).Advance(limit)
					if k < 1 || k > limit || start+k > n {
						t.Fatalf("%s/%s start %d limit %d: jumped %d repetitions, the reference predicate holds for %d",
							pname, name, start, limit, k, n-start)
					}
					rb := &states[start+k]
					if math.Abs(jb.available-rb.available) > scale || math.Abs(jb.bound-rb.bound) > scale ||
						relErr(jb.delivered, rb.delivered) > stateTol {
						t.Errorf("%s/%s start %d limit %d: jump state (%v, %v, %v) vs reference (%v, %v, %v)",
							pname, name, start, limit, jb.available, jb.bound, jb.delivered, rb.available, rb.bound, rb.delivered)
					}
					if k < limit {
						if ma, mb := newRefOp(rb, p).margins(); math.Min(ma, mb) > prefixSlack+scale {
							t.Errorf("%s/%s start %d limit %d: jump stopped at %d with reference margins %v, %v",
								pname, name, start, limit, k, ma, mb)
						}
					}
				}
			}
		}
	}
}
