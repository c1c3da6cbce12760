// Package availability implements the paper's datacenter-network
// availability model: each datacenter has a per-site availability, and the
// network is considered available when at least one datacenter is up,
// giving
//
//	A(n) = Σ_{i=0}^{n-1} C(n,i) · a^(n−i) · (1−a)^i
//
// for n datacenters of availability a.
package availability

import (
	"errors"
	"fmt"
	"math"
)

// PaperDefault is the per-datacenter availability the paper assumes for its
// "close to Tier III" datacenters (99.827 %).
const PaperDefault = 0.99827

// ErrUnreachable reports that no feasible datacenter count reaches the
// requested availability.
var ErrUnreachable = errors.New("availability: target not reachable")

// Network returns the availability of a network of n datacenters each with
// availability a: the probability that at least one is up.
func Network(n int, a float64) (float64, error) {
	if n < 1 {
		return 0, errors.New("availability: need at least one datacenter")
	}
	if a <= 0 || a > 1 {
		return 0, fmt.Errorf("availability: per-site availability %v out of (0,1]", a)
	}
	// P(at least one up) = 1 − (1−a)^n, numerically safer than summing the
	// binomial series the paper writes out (they are identical).
	return 1 - math.Pow(1-a, float64(n)), nil
}

// MinDatacenters returns the smallest number of datacenters (≥ 1) whose
// network availability reaches minAvailability, capped at maxN.
func MinDatacenters(perSite, minAvailability float64, maxN int) (int, error) {
	if maxN < 1 {
		maxN = 64
	}
	for n := 1; n <= maxN; n++ {
		av, err := Network(n, perSite)
		if err != nil {
			return 0, err
		}
		if av >= minAvailability {
			return n, nil
		}
	}
	return 0, ErrUnreachable
}
