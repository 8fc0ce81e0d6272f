package stochastic

import (
	"math"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// This file is the analytic fast path of the expected-value mode: the
// battery.SegmentDrainer / battery.RepetitionTransferer implementation.
//
// Within a constant-current segment evaluated at step h, the expected-value
// recursion of drainExpected is, per step m = 0, 1, ...:
//
//	rec_m   = min(p_m · idleFrac · Imax · h, bound_m)   p_m = P·e^(−λ·dod_m)
//	demand  = I·h
//	survive when demand ≤ available_m + rec_m
//
// The delivered charge — and hence the depth of discharge driving p_m —
// advances by exactly I·h per step no matter what recovery does, so away
// from the bound clamp the recovery sequence is geometric: rec_m = a·qᵐ with
// a = p₀·idleFrac·Imax·h and q = e^(−λ·I·h/Max). Partial sums telescope to
// S_k = a·(1−qᵏ)/(1−q), which updates the three state variables over any k
// steps in O(1). The steps where a branch decision is near — the recovery
// clamp engaging (the margin is monotone decreasing in m) or exhaustion (the
// survival margin is concave in m, so both admit endpoint checks with a
// binary search for the boundary) — are executed through drainExpected
// itself, so every branch is taken by the exact reference arithmetic and the
// fast path only bulk-applies step runs that provably stay on the plain
// surviving branch, with a small absolute slack guarding the closed-form
// versus iterated rounding difference.

// AnalyticOK implements battery.AnalyticGater: the closed-form segment fast
// path covers expected-value mode only. Monte Carlo trajectories are defined
// one RNG draw per slot and must keep the stepped path.
func (b *Battery) AnalyticOK() bool { return !b.params.MonteCarlo }

// prefixSlack is the margin, in coulombs, by which the closed-form branch
// conditions must hold for a step to be bulk-applied. It is several orders of
// magnitude above the closed-form-versus-iterated rounding difference and
// several below any physically meaningful charge, so knife-edge steps — and
// only those — fall through to the exact per-step arithmetic.
const prefixSlack = 1e-6

// expectedConsts returns the geometric-recovery constants of the current
// state for a constant current at step h: the first-step recovery a (zero
// when the bound store is empty — then the clamp pins recovery to exactly
// zero and the same formulas cover the pure-drain phase), the per-step decay
// exponent x (rec_m = a·e^(−x·m)), and the per-step demand d.
func (b *Battery) expectedConsts(current, h float64) (a, x, d float64) {
	demandFrac := math.Min(current/b.params.MaxCurrent, 1)
	idleFrac := 1 - demandFrac
	a = b.recoveryProbability() * idleFrac * b.params.MaxCurrent * h
	if b.bound <= 0 {
		a = 0
	}
	x = b.params.RecoveryDecay * current * h / b.params.MaxCoulombs
	d = current * h
	return a, x, d
}

// geomSum returns Σ_{m=0}^{k-1} a·e^(−x·m) via expm1, which keeps full
// precision when x is tiny (1−e^(−x) would cancel).
func geomSum(a, x, k float64) float64 {
	if x == 0 {
		return a * k
	}
	return a * math.Expm1(-x*k) / math.Expm1(-x)
}

// expectedPrefix returns how many of the next `remaining` whole steps can be
// bulk-applied from the given state: the largest k such that every step
// m < k stays on the plain surviving branch with prefixSlack to spare. The
// no-clamp margin bound − S_m − rec_m is monotone decreasing in m and the
// survival margin available + S_m − m·d + rec_m − d is concave with a
// non-negative value required at m = 0, so the admissible set is a prefix
// and a binary search finds its end.
func expectedPrefix(avail, bound, a, x, d float64, remaining int) int {
	ok := func(m int) bool {
		fm := float64(m)
		s := geomSum(a, x, fm)
		rec := a * math.Exp(-x*fm)
		if a > 0 && bound-s-rec <= prefixSlack {
			return false
		}
		return avail+s-fm*d+rec-d > prefixSlack
	}
	return admissiblePrefix(remaining, ok)
}

// admissiblePrefix returns the largest k <= n such that ok(m) holds for
// every m < k, for an ok whose true set is a prefix of [0, n) that the
// endpoint checks ok(0) and ok(n−1) decide: the endpoints are tested, then a
// binary search locates the end of the prefix.
func admissiblePrefix(n int, ok func(m int) bool) int {
	if n < 1 || !ok(0) {
		return 0
	}
	if ok(n - 1) {
		return n
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// applyExpectedSlots advances the state over k plain surviving steps in
// closed form (the caller guarantees, via expectedPrefix, that no branch
// decision occurs inside the run).
func (b *Battery) applyExpectedSlots(a, x, d float64, k int) {
	fk := float64(k)
	s := geomSum(a, x, fk)
	demand := d * fk
	b.available += s - demand
	b.bound -= s
	b.delivered += demand
}

// DrainSegment implements battery.SegmentDrainer. In expected-value mode it
// reproduces the step-h expected recursion (h = Params.ExpectedStep) over the
// whole constant-current segment: whole steps bulk-applied in closed form
// where provably branch-free, exact drainExpected steps at branch
// boundaries, and a final fractional step for the segment tail — the same
// step sequence the uniform-stepping driver at MaxStep = h generates. In
// Monte Carlo mode it delegates to the exact slot path (the analytic gate
// keeps the drivers off this method, but the delegation makes it correct
// regardless).
func (b *Battery) DrainSegment(current, dt float64) (sustained float64, alive bool) {
	if !b.alive {
		return 0, false
	}
	if dt <= 0 {
		return 0, true
	}
	if current < 0 {
		current = 0
	}
	if b.params.MonteCarlo {
		return b.drainMonteCarlo(current, dt)
	}
	h := b.estep
	slots := int(math.Floor(dt / h))
	tail := dt - float64(slots)*h
	if tail <= 1e-12 {
		tail = 0
	}
	done := 0.0
	for remaining := slots; remaining > 0; {
		a, x, d := b.expectedConsts(current, h)
		k := expectedPrefix(b.available, b.bound, a, x, d, remaining)
		if k < 1 {
			s, al := b.drainExpected(current, h)
			if !al {
				return done + s, false
			}
			done += h
			remaining--
			continue
		}
		b.applyExpectedSlots(a, x, d, k)
		done += float64(k) * h
		remaining -= k
	}
	if tail > 0 {
		s, al := b.drainExpected(current, tail)
		if !al {
			return done + s, false
		}
	}
	return dt, true
}

// ExhaustionTime implements battery.SegmentDrainer. Survival requires the
// cumulative demand to stay within the nominal store plus everything the
// bound store can ever release, so exhaustion under a positive constant
// current happens within MaxCoulombs/I plus one step; draining a scratch
// copy over that horizon pins the instant without touching the state. In
// Monte Carlo mode the exhaustion time is a random variable; this reports
// the expected-value mode estimate (the analytic driver never runs Monte
// Carlo instances, so nothing dispatches on it).
func (b *Battery) ExhaustionTime(current float64) float64 {
	if !b.alive {
		return 0
	}
	if current <= 0 {
		return math.Inf(1)
	}
	clone := *b
	clone.params.MonteCarlo = false
	horizon := b.params.MaxCoulombs/current + b.estep
	sustained, alive := clone.DrainSegment(current, horizon)
	if alive {
		return math.Inf(1)
	}
	return sustained
}

// repOp is the battery.RepetitionOperator of one profile for one instance.
// Within a repetition the depth of discharge advances deterministically, so
// each segment's recovery is the repetition-start recovery probability p
// times a precomputed factor, and one repetition recovers p·R in total. Each
// repetition also adds the same demand D to the delivered charge, so the
// start probability of repetition j is p₀·rʲ with r = e^(−λ·D): the
// recoveries of consecutive repetitions form a geometric series, and k of
// them sum to S_k = p₀·R·(1−rᵏ)/(1−r) — the same telescoping as the
// per-step recursion inside a segment, one level up.
type repOp struct {
	b      *Battery
	demand float64 // D: coulombs demanded (and delivered) by one repetition
	decay  float64 // λ·D: per-repetition decay exponent of the probability
	recov  float64 // R: recovery of one repetition per unit start probability
	// conservative-survival bounds over one repetition
	maxStepDem float64 // largest single-step demand
	recBound   float64 // recovery upper bound per unit probability: Imax·(Σ idle_s·dur_s + h)
}

// RepetitionOperator implements battery.RepetitionTransferer.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	h := b.estep
	imax := b.params.MaxCurrent
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	op := &repOp{b: b, recBound: imax * h}
	// prob threads the recovery probability, per unit start probability,
	// through the repetition's whole steps and fractional tails.
	prob := 1.0
	for _, sg := range p.Segments {
		cur := sg.Current
		if cur < 0 {
			cur = 0
		}
		slots := int(math.Floor(sg.Duration / h))
		tail := sg.Duration - float64(slots)*h
		if tail <= 1e-12 {
			tail = 0
		}
		idle := 1 - math.Min(cur/imax, 1)
		x := lambda * cur * h
		op.recov += prob * geomSum(idle*imax*h, x, float64(slots))
		op.demand += float64(slots) * cur * h
		prob *= math.Exp(-x * float64(slots))
		if tail > 0 {
			op.recov += prob * idle * imax * tail
			op.demand += cur * tail
			prob *= math.Exp(-lambda * cur * tail)
		}
		if d := cur * h; d > op.maxStepDem {
			op.maxStepDem = d
		}
		op.recBound += idle * imax * sg.Duration
	}
	op.decay = lambda * op.demand
	return op
}

// Advance implements battery.RepetitionOperator: it jumps the largest number
// of whole repetitions, up to limit, for which the per-repetition survival
// check holds at every repetition start, in one closed-form update.
//
// The check is conservative in the required direction. Recovery only ever
// adds charge, so the available store minus the repetition's whole demand
// lower-bounds every step's available charge; and the recovery probability
// only decays within a repetition, so the start probability times the cached
// idle time upper-bounds the repetition's recovery draw on the bound store.
// Both margins carry prefixSlack. Before repetition j the available margin
// is avail₀ + S_j − (j+1)·D, concave in j, and the bound margin is
// bound₀ − S_j − p₀·rʲ·B (B the cached recovery bound), whose step from j to
// j+1 is p₀·rʲ·(B·(1−r) − R), of one sign for every j: both hold on [0, k)
// when they hold at the endpoints, the admissible set is a prefix, and a
// bisection finds its end in O(log limit) closed-form evaluations —
// expectedPrefix's argument, one level up. The driver segment-steps the
// repetition after the jump, where the exact arithmetic decides.
func (o *repOp) Advance(limit int) int {
	b := o.b
	if !b.alive || b.params.MonteCarlo {
		return 0
	}
	avail, bound, p0 := b.available, b.bound, b.recoveryProbability()
	a := p0 * o.recov
	ok := func(j int) bool {
		fj := float64(j)
		s := geomSum(a, o.decay, fj)
		if avail+s-fj*o.demand-o.demand <= o.maxStepDem+prefixSlack {
			return false
		}
		return bound-s > p0*math.Exp(-o.decay*fj)*o.recBound+prefixSlack
	}
	k := admissiblePrefix(limit, ok)
	fk := float64(k)
	s := geomSum(a, o.decay, fk)
	b.available += s - fk*o.demand
	b.bound -= s
	b.delivered += fk * o.demand
	return k
}

// compile-time interface checks
var (
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
	_ battery.AnalyticGater        = (*Battery)(nil)
	_ battery.RepetitionOperator   = (*repOp)(nil)
)
