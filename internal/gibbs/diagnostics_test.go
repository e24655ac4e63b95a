package gibbs

import "testing"

func TestEffectiveSampleSizeBounds(t *testing.T) {
	// Alternating iid-ish series: ESS near total.
	series := [][]float64{
		{0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0},
		{1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1},
	}
	total := 24.0
	ess := effectiveSampleSize(series)
	if ess <= 0 || ess > total {
		t.Errorf("ESS = %v outside (0, %v]", ess, total)
	}
	// Perfectly sticky series: ESS collapses.
	sticky := [][]float64{
		{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0},
	}
	if e := effectiveSampleSize(sticky); e > total/2 {
		t.Errorf("sticky ESS = %v, want heavily discounted", e)
	}
	// Constant series: defined as total.
	constant := [][]float64{{1, 1, 1, 1}, {1, 1, 1, 1}}
	if e := effectiveSampleSize(constant); e != 8 {
		t.Errorf("constant ESS = %v, want 8", e)
	}
}
