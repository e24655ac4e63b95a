package gibbs

// The paper notes that "the length of burn-in (B), and the subsequent
// number of iterations (N), may be estimated using standard techniques"
// (Section V-A). The effective sample size below is one of them: the
// chain tests size their Monte Carlo standard errors with it.

// effectiveSampleSize estimates ESS across chains using Geyer's initial
// positive sequence on the pooled autocorrelation.
func effectiveSampleSize(series [][]float64) float64 {
	m := len(series)
	n := len(series[0])
	total := float64(m * n)

	// Pooled mean and variance.
	var mean float64
	for _, s := range series {
		for _, v := range s {
			mean += v
		}
	}
	mean /= total
	var variance float64
	for _, s := range series {
		for _, v := range s {
			d := v - mean
			variance += d * d
		}
	}
	variance /= total
	if variance == 0 {
		return total
	}

	// Average autocorrelation at lag t across chains; accumulate while the
	// pairwise sums (Geyer) stay positive.
	var sum float64
	for lag := 1; lag < n-1; lag += 2 {
		rho1 := pooledAutocorr(series, mean, variance, lag)
		rho2 := pooledAutocorr(series, mean, variance, lag+1)
		if rho1+rho2 <= 0 {
			break
		}
		sum += rho1 + rho2
	}
	ess := total / (1 + 2*sum)
	if ess > total {
		ess = total
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}

func pooledAutocorr(series [][]float64, mean, variance float64, lag int) float64 {
	var acc float64
	var count int
	for _, s := range series {
		for i := 0; i+lag < len(s); i++ {
			acc += (s[i] - mean) * (s[i+lag] - mean)
			count += 1
		}
	}
	if count == 0 || variance == 0 {
		return 0
	}
	return acc / (float64(count) * variance)
}
