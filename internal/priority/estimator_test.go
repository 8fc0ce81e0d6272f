package priority

import (
	"math"
	"math/rand"
	"testing"
)

// mapHistory is the reference HistoryEstimator: the same EWMA kept in a map
// keyed by (graph, node), the estimator's representation before the dense
// table. Indices are assumed non-negative.
type mapHistory struct {
	alpha, initial float64
	hist           map[[2]int]float64
}

func (m *mapHistory) estimate(g, n int, wcet float64) float64 {
	if wcet <= 0 {
		return 0
	}
	frac, ok := m.hist[[2]int{g, n}]
	if !ok {
		frac = m.initial
		if frac <= 0 || frac > 1 {
			frac = DefaultInitialFraction
		}
	}
	est := frac * wcet
	if est <= 0 {
		est = 1e-9 * wcet
	}
	if est > wcet {
		est = wcet
	}
	return est
}

func (m *mapHistory) observe(g, n int, wcet, actual float64) {
	if wcet <= 0 || actual <= 0 {
		return
	}
	frac := actual / wcet
	if frac > 1 {
		frac = 1
	}
	k := [2]int{g, n}
	if prev, ok := m.hist[k]; ok {
		m.hist[k] = (1-m.alpha)*prev + m.alpha*frac
	} else {
		m.hist[k] = frac
	}
}

// TestHistoryEstimatorMatchesMapReference drives random Observe, Estimate and
// Reset sequences, with indices that force the table to grow past its
// initial size, and requires bit-equal estimates and equal Len against the
// map-based reference.
func TestHistoryEstimatorMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha := []float64{0.5, 0.3, 0.9, 1}[rng.Intn(4)]
		h := NewHistoryEstimator(alpha)
		h.InitialFraction = []float64{DefaultInitialFraction, 0.25, 0, 2}[rng.Intn(4)]
		ref := &mapHistory{alpha: h.Alpha, initial: h.InitialFraction, hist: map[[2]int]float64{}}
		index := func() int {
			if rng.Intn(10) == 0 {
				return rng.Intn(3 * minHistRowLen)
			}
			return rng.Intn(minHistRows)
		}
		for op := 0; op < 4000; op++ {
			g, n := index(), index()
			wcet := 1 + rng.Float64()*1e7
			switch r := rng.Intn(100); {
			case r < 45:
				actual := rng.Float64() * wcet * 1.3
				if rng.Intn(20) == 0 {
					actual = 0
				}
				if rng.Intn(20) == 0 {
					wcet = -wcet
				}
				h.Observe(g, n, wcet, actual)
				ref.observe(g, n, wcet, actual)
			case r < 99:
				if rng.Intn(20) == 0 {
					wcet = 0
				}
				got, want := h.Estimate(g, n, wcet), ref.estimate(g, n, wcet)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: Estimate(%d, %d, %v) = %v, reference %v", seed, op, g, n, wcet, got, want)
				}
			default:
				h.Reset()
				clear(ref.hist)
			}
			if h.Len() != len(ref.hist) {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, h.Len(), len(ref.hist))
			}
		}
	}
}

// TestHistoryEstimatorNegativeIndices pins the documented behaviour of
// negative indices: Observe ignores them and Estimate answers as for a node
// never observed.
func TestHistoryEstimatorNegativeIndices(t *testing.T) {
	h := NewHistoryEstimator(0.5)
	h.Observe(-1, 0, 100, 30)
	h.Observe(0, -1, 100, 30)
	h.Observe(-3, -2, 100, 30)
	if h.Len() != 0 {
		t.Fatalf("Len after negative-index observations = %d, want 0", h.Len())
	}
	h.Observe(0, 0, 100, 30)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {-1, -1}} {
		if got, want := h.Estimate(idx[0], idx[1], 100), DefaultInitialFraction*100; got != want {
			t.Fatalf("Estimate(%d, %d) = %v, want the unobserved estimate %v", idx[0], idx[1], got, want)
		}
	}
	if got := h.Estimate(0, 0, 100); got != 30 {
		t.Fatalf("Estimate(0, 0) = %v, want 30", got)
	}
}

// TestHistoryEstimatorResetKeepsStorage checks that Reset forgets every entry
// and that relearning the same nodes afterwards does not allocate.
func TestHistoryEstimatorResetKeepsStorage(t *testing.T) {
	h := NewHistoryEstimator(0.5)
	learn := func() {
		for g := 0; g < 5; g++ {
			for n := 0; n < 15; n++ {
				h.Observe(g, n, 100, float64(10+n))
			}
		}
	}
	learn()
	if h.Len() != 75 {
		t.Fatalf("Len = %d, want 75", h.Len())
	}
	h.Reset()
	if h.Len() != 0 || h.Estimate(2, 3, 100) != DefaultInitialFraction*100 {
		t.Fatalf("Reset kept history: Len %d, estimate %v", h.Len(), h.Estimate(2, 3, 100))
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Reset(); learn() }); allocs != 0 {
		t.Fatalf("relearning after Reset allocates %v times, want 0", allocs)
	}
}
