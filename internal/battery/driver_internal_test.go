package battery

import (
	"math"
	"math/rand"
	"testing"
)

// TestPeriodsBeforeIsSafe: every period periodsBefore hands out passes the
// driver's t+period <= maxTime check when t then advances one period at a
// time, and the count leaves only a few periods (plus a millionth of them on
// very long horizons) to one-at-a-time calls.
func TestPeriodsBeforeIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][3]float64{
		{0, 1.6, 72 * 3600},
		{0, 0.8000000000000012, 72 * 3600},
		{0, 60.2, 72 * 3600},
		{0, 0.01, 48 * 3600},
		{0, 72 * 3600, 72 * 3600},
		{259000.5, 1.6, 72 * 3600},
	}
	for i := 0; i < 200; i++ {
		maxTime := 3600 * (1 + 100*rng.Float64())
		period := math.Pow(10, -1+5*rng.Float64())
		cases = append(cases, [3]float64{maxTime * rng.Float64(), period, maxTime})
	}
	for _, c := range cases {
		t0, period, maxTime := c[0], c[1], c[2]
		if t0+period > maxTime {
			continue
		}
		k := periodsBefore(t0, period, maxTime)
		tt := t0
		for i := 0; i < k; i++ {
			if tt+period > maxTime {
				t.Fatalf("t=%v period=%v horizon=%v: period %d of %d passes the horizon", t0, period, maxTime, i, k)
			}
			tt += period
		}
		if left := (maxTime - tt) / period; k > 1 && left > 4+1e-6*float64(k) {
			t.Errorf("t=%v period=%v horizon=%v: %d periods handed out, %.1f left", t0, period, maxTime, k, left)
		}
	}
}
