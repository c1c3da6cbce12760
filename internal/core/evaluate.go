package core

import (
	"math"

	"greencloud/internal/cost"
	"greencloud/internal/energy"
	"greencloud/internal/location"
)

// Candidate names one site of a candidate siting and, optionally, the IT
// capacity to build there.  A zero capacity lets the evaluator assign an
// equal share of the required total.
type Candidate struct {
	SiteID     int
	CapacityKW float64
}

// maxBrownShareOfPlant is the paper's F parameter: the fraction of the
// nearest brown plant's capacity a datacenter may draw.
const maxBrownShareOfPlant = 0.8

// plantScaleCeiling bounds the plant-sizing search, expressed as a multiple
// of the size that would nominally cover the whole network demand.
const plantScaleCeiling = 50.0

// Evaluate provisions a fixed siting and prices it: it assigns IT capacity,
// schedules the follow-the-renewables load across the sites, sizes solar and
// wind plants (and batteries) so the network meets the requested green
// fraction, balances every site's energy, and computes the monthly cost.
//
// Evaluate is the fast inner-loop evaluator of the heuristic solver; it is
// deterministic and never returns an error for merely infeasible inputs —
// those come back as a Solution with Feasible == false so the search can
// treat them as very expensive states.
//
// Evaluate constructs a fresh Evaluator per call.  Hot loops that evaluate
// many sitings against the same catalog and spec (the annealing chains, the
// sweep experiments, location filtering) should create one Evaluator and
// reuse it — its EvaluateCost method is allocation-free in steady state.
func Evaluate(cat *location.Catalog, candidates []Candidate, spec Spec) (*Solution, error) {
	e, err := NewEvaluator(cat, spec)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(candidates)
}

// EvaluateSingleSite prices a single datacenter of the given capacity at one
// site under the spec's green-fraction and storage settings.  It is used for
// the per-location cost exploration of Fig. 6 and for location filtering.
func EvaluateSingleSite(cat *location.Catalog, siteID int, capacityKW float64, spec Spec) (*Solution, error) {
	e, err := NewSingleSiteEvaluator(cat, capacityKW, spec)
	if err != nil {
		return nil, err
	}
	return e.Evaluate([]Candidate{{SiteID: siteID, CapacityKW: capacityKW}})
}

// NewSingleSiteEvaluator returns a reusable evaluator carrying the
// EvaluateSingleSite spec transform, for hot loops that price one
// datacenter of the given capacity at many locations (Fig. 6, Table II,
// location filtering).
func NewSingleSiteEvaluator(cat *location.Catalog, capacityKW float64, spec Spec) (*Evaluator, error) {
	return NewEvaluator(cat, singleSiteSpec(spec.withDefaults(), capacityKW))
}

// singleSiteSpec adapts a network spec to pricing one datacenter of the
// given capacity.  A single site is exempt from the network availability
// rule: one paper-tier datacenter always satisfies this relaxed target, so
// the per-location cost of Fig. 6 is not polluted by the network constraint.
func singleSiteSpec(spec Spec, capacityKW float64) Spec {
	spec.TotalCapacityKW = capacityKW
	spec.MinAvailability = 0.5
	return spec
}

// unitGreenCost returns the monthly cost of one kW of installed plant of the
// given technology at the site, divided by the kWh it produces per month —
// i.e. dollars per monthly kWh of green energy.  Infinite when the
// technology is not viable at the site.
func unitGreenCost(site *location.Site, solar bool, p cost.Params) float64 {
	var cf, buildPerW, areaPerKW float64
	if solar {
		cf = site.SolarCapacityFactor
		buildPerW = p.PriceBuildSolarPerW
		areaPerKW = p.AreaSolarM2PerKW
	} else {
		cf = site.WindCapacityFactor
		buildPerW = p.PriceBuildWindPerW
		areaPerKW = p.AreaWindM2PerKW
	}
	if cf < 0.02 {
		return math.Inf(1)
	}
	monthly := cost.MonthlyFinanced(1000*buildPerW, p.AnnualInterestRate, p.FinancingYears, p.PlantAmortYears) +
		cost.MonthlyInterestOnly(site.LandPriceUSDPerM2*areaPerKW, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)
	kwhPerMonth := cf * float64(location.HoursPerYear) / 12
	return monthly / kwhPerMonth
}

// techWeights decides how a site splits its green plant between solar and
// wind, based on which technology delivers cheaper usable energy there and
// on which technologies the spec allows.  ucSolar and ucWind are the site's
// unit green costs (from unitGreenCost); the caller passes them in so that
// per-catalog caches need to price each technology only once per site.
func techWeights(ucSolar, ucWind float64, spec Spec) (solarW, windW float64) {
	if spec.Sources == WindOnly {
		ucSolar = math.Inf(1)
	}
	if spec.Sources == SolarOnly {
		ucWind = math.Inf(1)
	}
	switch {
	case math.IsInf(ucSolar, 1) && math.IsInf(ucWind, 1):
		return 0, 0
	case math.IsInf(ucWind, 1):
		return 1, 0
	case math.IsInf(ucSolar, 1):
		return 0, 1
	}
	// Both viable: the cheaper one dominates; the other gets a minority
	// share when it is close in cost (mixing reduces variability, which is
	// why the paper's solar+wind solutions beat single-technology ones
	// when storage is scarce).
	if ucWind <= ucSolar {
		if ucSolar <= 1.4*ucWind && spec.Storage != energy.NetMetering {
			return 0.25, 0.75
		}
		return 0, 1
	}
	if ucWind <= 1.4*ucSolar && spec.Storage != energy.NetMetering {
		return 0.75, 0.25
	}
	return 1, 0
}

// batteryCapacityFor sizes a site's battery bank as BatteryHours hours of the
// plant's average production (zero unless battery storage is selected).
func batteryCapacityFor(solarKW, windKW float64, site *location.Site, spec *Spec) float64 {
	if spec.Storage != energy.Batteries {
		return 0
	}
	avgProduction := solarKW*site.SolarCapacityFactor + windKW*site.WindCapacityFactor
	return spec.BatteryHours * avgProduction
}
