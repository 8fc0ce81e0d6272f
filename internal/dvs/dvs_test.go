package dvs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const fmax = 1e9

// twoInstances is a simple scenario: T1 (period 0.05 s, 20e6 cycles) and
// T2 (period 0.1 s, 30e6 cycles), both just released at t=0.
func twoInstances() []InstanceView {
	return []InstanceView{
		{GraphIndex: 0, ReleaseTime: 0, AbsoluteDeadline: 0.05, Period: 0.05, TotalWCET: 20e6, AdjustedWCET: 20e6, RemainingWorstCase: 20e6},
		{GraphIndex: 1, ReleaseTime: 0, AbsoluteDeadline: 0.1, Period: 0.1, TotalWCET: 30e6, AdjustedWCET: 30e6, RemainingWorstCase: 30e6},
	}
}

func TestNames(t *testing.T) {
	if NewNoDVS().Name() != "noDVS" || NewCCEDF().Name() != "ccEDF" || NewLAEDF().Name() != "laEDF" || NewStatic().Name() != "staticEDF" {
		t.Fatal("unexpected algorithm names")
	}
}

func TestNoDVS(t *testing.T) {
	a := NewNoDVS()
	if got := a.SelectFrequency(0, fmax, twoInstances()); got != fmax {
		t.Fatalf("NoDVS with work = %v, want fmax", got)
	}
	if got := a.SelectFrequency(0, fmax, nil); got != 0 {
		t.Fatalf("NoDVS without work = %v, want 0", got)
	}
}

func TestStaticUsesWorstCaseUtilization(t *testing.T) {
	a := NewStatic()
	// U = 20e6/(1e9*0.05) + 30e6/(1e9*0.1) = 0.4 + 0.3 = 0.7
	got := a.SelectFrequency(0, fmax, twoInstances())
	if math.Abs(got-0.7*fmax) > 1 {
		t.Fatalf("Static = %v, want 0.7*fmax", got)
	}
	if a.SelectFrequency(0, fmax, nil) != 0 {
		t.Fatal("Static without work should be 0")
	}
}

func TestCCEDFUsesAdjustedUtilization(t *testing.T) {
	a := NewCCEDF()
	inst := twoInstances()
	// Initially identical to the static utilisation.
	if got := a.SelectFrequency(0, fmax, inst); math.Abs(got-0.7*fmax) > 1 {
		t.Fatalf("ccEDF initial = %v, want 0.7*fmax", got)
	}
	// A node of T1 finished early: WC_1 drops from 20e6 to 12e6 cycles.
	inst[0].AdjustedWCET = 12e6
	// U = 12e6/(1e9*0.05) + 0.3 = 0.24+0.3 = 0.54
	if got := a.SelectFrequency(0.01, fmax, inst); math.Abs(got-0.54*fmax) > 1 {
		t.Fatalf("ccEDF after early completion = %v, want 0.54*fmax", got)
	}
	if a.SelectFrequency(0, fmax, nil) != 0 {
		t.Fatal("ccEDF without work should be 0")
	}
	if a.SelectFrequency(0, 0, inst) != 0 {
		t.Fatal("ccEDF with fmax=0 should be 0")
	}
}

func TestCCEDFClampedAtFmax(t *testing.T) {
	a := NewCCEDF()
	inst := []InstanceView{{AbsoluteDeadline: 1, Period: 1, TotalWCET: 2e9, AdjustedWCET: 2e9, RemainingWorstCase: 2e9}}
	if got := a.SelectFrequency(0, fmax, inst); got != fmax {
		t.Fatalf("ccEDF over-utilised = %v, want clamp at fmax", got)
	}
}

func TestLAEDFSingleInstance(t *testing.T) {
	a := NewLAEDF()
	// Single instance: everything must finish before its own deadline, so
	// fref = remaining / (D - now).
	inst := []InstanceView{{AbsoluteDeadline: 0.1, Period: 0.1, TotalWCET: 40e6, AdjustedWCET: 40e6, RemainingWorstCase: 40e6}}
	got := a.SelectFrequency(0, fmax, inst)
	want := 40e6 / 0.1
	if math.Abs(got-want) > 1 {
		t.Fatalf("laEDF single = %v, want %v", got, want)
	}
	// Halfway to the deadline with half the work left: same speed.
	inst[0].RemainingWorstCase = 20e6
	got = a.SelectFrequency(0.05, fmax, inst)
	if math.Abs(got-want) > 1 {
		t.Fatalf("laEDF halfway = %v, want %v", got, want)
	}
}

func TestLAEDFDefersWorkOfLaterDeadlines(t *testing.T) {
	a := NewLAEDF()
	cc := NewCCEDF()
	inst := twoInstances()
	la := a.SelectFrequency(0, fmax, inst)
	ccF := cc.SelectFrequency(0, fmax, inst)
	if la <= 0 || la > fmax {
		t.Fatalf("laEDF out of range: %v", la)
	}
	// laEDF must be at least the speed needed for the earliest deadline alone
	// and no greater than fmax.
	minNeeded := inst[0].RemainingWorstCase / inst[0].AbsoluteDeadline
	if la < minNeeded-1 {
		t.Fatalf("laEDF %v below the minimum %v needed for the earliest deadline", la, minNeeded)
	}
	// With plenty of slack it should not exceed ccEDF by much; in this
	// scenario the defer calculation yields a value <= ccEDF's utilisation
	// frequency (laEDF is the more aggressive algorithm).
	if la > ccF+1 {
		t.Fatalf("laEDF %v exceeds ccEDF %v on a fresh release", la, ccF)
	}
	if a.SelectFrequency(0, fmax, nil) != 0 {
		t.Fatal("laEDF without work should be 0")
	}
}

func TestLAEDFImmediateDeadlineRunsFlatOut(t *testing.T) {
	a := NewLAEDF()
	inst := []InstanceView{{AbsoluteDeadline: 1.0, Period: 1, TotalWCET: 1e6, AdjustedWCET: 1e6, RemainingWorstCase: 1e6}}
	if got := a.SelectFrequency(1.0, fmax, inst); got != fmax {
		t.Fatalf("laEDF at the deadline = %v, want fmax", got)
	}
}

func TestLAEDFGuaranteesEarliestDeadlineWork(t *testing.T) {
	// Whatever the mix of instances, running at the returned frequency until
	// the earliest deadline must complete at least the remaining work of the
	// earliest-deadline instance (that work cannot be deferred past it).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := rng.Float64() * 0.01
		n := 1 + rng.Intn(5)
		inst := make([]InstanceView, n)
		var u float64
		for i := range inst {
			period := 0.02 + rng.Float64()*0.2
			wc := rng.Float64() * 0.5 * period * fmax / float64(n)
			rel := now - rng.Float64()*period*0.5
			inst[i] = InstanceView{
				GraphIndex:         i,
				ReleaseTime:        rel,
				AbsoluteDeadline:   rel + period,
				Period:             period,
				TotalWCET:          wc,
				AdjustedWCET:       wc,
				RemainingWorstCase: wc * (0.3 + 0.7*rng.Float64()),
			}
			u += wc / (fmax * period)
		}
		if u > 1 {
			return true // not a schedulable scenario; skip
		}
		sorted := sortEDF(inst)
		dn := sorted[0].AbsoluteDeadline
		if dn <= now {
			return true
		}
		fref := NewLAEDF().SelectFrequency(now, fmax, inst)
		if fref < 0 || fref > fmax {
			return false
		}
		// Work completable before dn at fref must cover the earliest
		// instance's remaining work.
		return fref*(dn-now)+1e-3 >= sorted[0].RemainingWorstCase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every algorithm returns a frequency in [0, fmax] and is
// monotone: ccEDF never returns less than the pure utilisation of remaining
// deadlines would require... (bounds check only).
func TestAllAlgorithmsWithinRangeProperty(t *testing.T) {
	algs := []Algorithm{NewNoDVS(), NewStatic(), NewCCEDF(), NewLAEDF()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6)
		inst := make([]InstanceView, n)
		for i := range inst {
			period := 0.01 + rng.Float64()*0.5
			wc := rng.Float64() * period * fmax * 0.4
			inst[i] = InstanceView{
				AbsoluteDeadline:   rng.Float64() * 2,
				Period:             period,
				TotalWCET:          wc,
				AdjustedWCET:       wc * (0.2 + 0.8*rng.Float64()),
				RemainingWorstCase: wc * rng.Float64(),
			}
		}
		now := rng.Float64()
		for _, a := range algs {
			got := a.SelectFrequency(now, fmax, inst)
			if got < 0 || got > fmax || math.IsNaN(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSortEDFDoesNotMutateInput(t *testing.T) {
	inst := []InstanceView{
		{AbsoluteDeadline: 0.2},
		{AbsoluteDeadline: 0.1},
	}
	out := sortEDF(inst)
	if inst[0].AbsoluteDeadline != 0.2 {
		t.Fatal("sortEDF mutated its input")
	}
	if out[0].AbsoluteDeadline != 0.1 {
		t.Fatal("sortEDF did not sort")
	}
}

func TestClampFrequency(t *testing.T) {
	if clampFrequency(-1, fmax) != 0 {
		t.Fatal("negative not clamped to 0")
	}
	if clampFrequency(2*fmax, fmax) != fmax {
		t.Fatal("excess not clamped to fmax")
	}
	if clampFrequency(0.5*fmax, fmax) != 0.5*fmax {
		t.Fatal("in-range value altered")
	}
}

// TestLAEDFScanMatchesSelectFrequency checks the prepared scan against the
// plain laEDF scan bit for bit on random EDF-sorted views: zero-Period views,
// tied deadlines, an earliest deadline at or before now, and, for every
// position k, a what-if query whose remaining worst case is clamped to 0 as
// the scheduler clamps it.
func TestLAEDFScanMatchesSelectFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scan LAEDFScan
	la := NewLAEDF()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(9)
		views := make([]InstanceView, n)
		d := rng.Float64() * 0.05
		for i := range views {
			if i == 0 || rng.Intn(4) != 0 { // some deadlines tie
				d += rng.Float64() * 0.1
			}
			period := 0.02 + rng.Float64()*0.2
			if rng.Intn(6) == 0 {
				period = 0
			}
			total := rng.Float64() * 3e7
			rem := total * rng.Float64()
			if rng.Intn(8) == 0 {
				rem = 0
			}
			views[i] = InstanceView{GraphIndex: i, AbsoluteDeadline: d, Period: period, TotalWCET: total, AdjustedWCET: total, RemainingWorstCase: rem}
		}
		now := rng.Float64() * 0.05
		if n > 0 && rng.Intn(5) == 0 {
			now = views[0].AbsoluteDeadline + rng.Float64()*0.01 // dn <= now
		}
		f := fmax
		if rng.Intn(50) == 0 {
			f = 0
		}
		scan.Prepare(f, views)
		if got, want := scan.Frequency(now), la.SelectFrequency(now, f, views); !same(got, want) {
			t.Fatalf("trial %d: Frequency = %v, SelectFrequency = %v", trial, got, want)
		}
		for k := range views {
			then := now + rng.Float64()*0.02
			rem := views[k].RemainingWorstCase - rng.Float64()*2e7
			if rem < 0 {
				rem = 0
			}
			edited := append([]InstanceView(nil), views...)
			edited[k].RemainingWorstCase = rem
			if got, want := scan.FrequencyWith(then, k, rem), la.SelectFrequency(then, f, edited); !same(got, want) {
				t.Fatalf("trial %d, k=%d: FrequencyWith = %v, SelectFrequency = %v", trial, k, got, want)
			}
		}
		// Queries leave the prepared state untouched.
		if got, want := scan.Frequency(now), la.SelectFrequency(now, f, views); !same(got, want) {
			t.Fatalf("trial %d: Frequency after queries = %v, SelectFrequency = %v", trial, got, want)
		}
	}
}
