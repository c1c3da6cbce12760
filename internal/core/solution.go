package core

import (
	"fmt"
	"strings"

	"greencloud/internal/cost"
	"greencloud/internal/location"
	"greencloud/internal/lp"
)

// SiteSolution is the provisioning and yearly operation of one selected site.
type SiteSolution struct {
	// Site is the selected location.
	Site *location.Site
	// Provision is what gets built there.
	Provision cost.Provision
	// Breakdown is the site's monthly cost.
	Breakdown cost.Breakdown
	// GreenFraction is the fraction of the site's yearly demand covered by
	// green sources.
	GreenFraction float64
}

// Solution is a fully provisioned datacenter network.
type Solution struct {
	// Sites are the selected sites with their provisioning.
	Sites []SiteSolution
	// TotalMonthlyUSD is the total monthly cost of the network.
	TotalMonthlyUSD float64
	// Breakdown is the aggregate monthly cost breakdown.
	Breakdown cost.Breakdown
	// GreenFraction is the network-wide fraction of demand covered by
	// green energy over the year.
	GreenFraction float64
	// ProvisionedCapacityKW is the total IT capacity built.
	ProvisionedCapacityKW float64
	// SolarKW and WindKW are the total installed plant capacities.
	SolarKW float64
	WindKW  float64
	// BatteryKWh is the total installed battery capacity.
	BatteryKWh float64
	// Feasible reports whether every constraint is met.
	Feasible bool
	// Violations lists the constraints that are not met (empty when
	// Feasible).
	Violations []string
	// ExactNodes, ExactProven, ExactGap and ExactLPStats are only set by
	// SolveExact: the branch-and-bound node count, whether the search
	// closed (the siting is proven optimal) or a budget stopped it first,
	// the relative bound gap still open when it stopped (0 when proven),
	// and the aggregate simplex work of its node relaxations.  The
	// heuristic path leaves them zero.
	ExactNodes   int
	ExactProven  bool
	ExactGap     float64
	ExactLPStats lp.Stats
}

// addViolation records a constraint violation.
func (s *Solution) addViolation(format string, args ...any) {
	s.Feasible = false
	s.Violations = append(s.Violations, fmt.Sprintf(format, args...))
}

// Summary returns a short human-readable description of the solution.
func (s *Solution) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d datacenters, %.1f MW IT, %.1f MW solar, %.1f MW wind, %.0f MWh battery\n",
		len(s.Sites), s.ProvisionedCapacityKW/1000, s.SolarKW/1000, s.WindKW/1000, s.BatteryKWh/1000)
	fmt.Fprintf(&b, "green fraction %.1f%%, monthly cost $%.2fM", 100*s.GreenFraction, s.TotalMonthlyUSD/1e6)
	if !s.Feasible {
		fmt.Fprintf(&b, " [INFEASIBLE: %s]", strings.Join(s.Violations, "; "))
	}
	for _, site := range s.Sites {
		fmt.Fprintf(&b, "\n  %-18s IT %6.1f MW  solar %7.1f MW  wind %7.1f MW  batt %8.0f kWh  green %5.1f%%  $%.2fM/mo",
			site.Site.Name, site.Provision.CapacityKW/1000, site.Provision.SolarKW/1000,
			site.Provision.WindKW/1000, site.Provision.BatteryKWh,
			100*site.GreenFraction, site.Breakdown.Total()/1e6)
	}
	return b.String()
}
