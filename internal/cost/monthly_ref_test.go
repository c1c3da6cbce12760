package cost

// This file preserves MonthlySite as it shipped before the annuity
// denominators were computed once per financing period: every component
// calls MonthlyFinanced or MonthlyInterestOnly, which re-evaluates
// (1+r)^−months.  TestMonthlySiteMatchesReference pins the production
// MonthlySite against it bit for bit.  It is a frozen copy — do not
// "improve" it; its only job is to disagree loudly when a cost drifts.

import (
	"math"
	"math/rand"
	"testing"

	"greencloud/internal/location"
)

// refFinancedTotal is the total amount repaid on an annuity loan.
func refFinancedTotal(principal, annualRate float64, years int) float64 {
	months := float64(years * MonthsPerYear)
	if annualRate == 0 {
		return principal
	}
	r := annualRate / MonthsPerYear
	payment := principal * r / (1 - math.Pow(1+r, -months))
	return payment * months
}

func refMonthlyFinanced(principal, annualRate float64, financingYears, amortYears int) float64 {
	if principal <= 0 {
		return 0
	}
	total := refFinancedTotal(principal, annualRate, financingYears)
	return total / float64(amortYears*MonthsPerYear)
}

func refMonthlyInterestOnly(principal, annualRate float64, financingYears, amortYears int) float64 {
	if principal <= 0 {
		return 0
	}
	interest := refFinancedTotal(principal, annualRate, financingYears) - principal
	if interest < 0 {
		interest = 0
	}
	return interest / float64(amortYears*MonthsPerYear)
}

// refMonthlySite is the reference breakdown.
func refMonthlySite(p Params, site *location.Site, prov Provision, use EnergyUse) Breakdown {
	var b Breakdown
	maxPUE := prov.MaxPUE
	if maxPUE <= 0 {
		maxPUE = site.MaxPUE
	}

	b.ConnectionPower = refMonthlyFinanced(site.DistPowerKm*p.CostLinePowPerKm,
		p.AnnualInterestRate, p.FinancingYears, p.DCAmortYears)
	b.ConnectionFiber = refMonthlyFinanced(site.DistNetworkKm*p.CostLineNetPerKm,
		p.AnnualInterestRate, p.FinancingYears, p.DCAmortYears)

	if prov.CapacityKW <= 0 && prov.SolarKW <= 0 && prov.WindKW <= 0 {
		return Breakdown{}
	}

	landDCUSD := site.LandPriceUSDPerM2 * prov.CapacityKW * p.AreaDCM2PerKW
	landPlantUSD := site.LandPriceUSDPerM2 * (prov.SolarKW*p.AreaSolarM2PerKW + prov.WindKW*p.AreaWindM2PerKW)
	b.LandDC = refMonthlyInterestOnly(landDCUSD, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)
	b.LandPlant = refMonthlyInterestOnly(landPlantUSD, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)

	totalKW := prov.CapacityKW * maxPUE
	buildDCUSD := totalKW * 1000 * p.BuildDCPricePerW(totalKW)
	b.BuildDC = refMonthlyFinanced(buildDCUSD, p.AnnualInterestRate, p.FinancingYears, p.DCAmortYears)

	b.BuildSolar = refMonthlyFinanced(prov.SolarKW*1000*p.PriceBuildSolarPerW,
		p.AnnualInterestRate, p.FinancingYears, p.PlantAmortYears)
	b.BuildWind = refMonthlyFinanced(prov.WindKW*1000*p.PriceBuildWindPerW,
		p.AnnualInterestRate, p.FinancingYears, p.PlantAmortYears)

	servers := p.NumServers(prov.CapacityKW)
	itUSD := servers*p.PriceServerUSD + (servers/p.ServersPerSwitch)*p.PriceSwitchUSD
	b.ITEquipment = refMonthlyFinanced(itUSD, p.AnnualInterestRate, p.ITAmortYears, p.ITAmortYears)

	b.Battery = refMonthlyFinanced(prov.BatteryKWh*p.PriceBattPerKWh,
		p.AnnualInterestRate, p.BattAmortYears, p.BattAmortYears)

	b.NetworkBandwidth = servers * p.PriceBWPerServerMonth
	yearlyBrownUSD := site.GridPriceUSDPerKWh *
		(use.BrownKWh + use.NetDischargedKWh - p.CreditNetMeter*use.NetChargedKWh)
	b.BrownEnergy = yearlyBrownUSD / MonthsPerYear

	return b
}

// breakdownBits lists every Breakdown field's bits, so a comparison tells
// +0 from −0 and matches NaN with itself.
func breakdownBits(b Breakdown) [11]uint64 {
	return [11]uint64{
		math.Float64bits(b.LandDC), math.Float64bits(b.LandPlant),
		math.Float64bits(b.BuildDC), math.Float64bits(b.BuildSolar),
		math.Float64bits(b.BuildWind), math.Float64bits(b.ITEquipment),
		math.Float64bits(b.Battery), math.Float64bits(b.ConnectionPower),
		math.Float64bits(b.ConnectionFiber), math.Float64bits(b.NetworkBandwidth),
		math.Float64bits(b.BrownEnergy),
	}
}

// TestMonthlySiteMatchesReference pins MonthlySite, MonthlyFinanced and
// MonthlyInterestOnly bit for bit against the frozen reference over
// randomized parameters, sites, provisions and energy use: zero and
// non-zero rates, equal and unequal financing periods, zero principals
// and the nothing-built early return.
func TestMonthlySiteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	years := func() int { return 1 + rng.Intn(30) }
	// zeroOr returns 0 a quarter of the time, so every principal is
	// sometimes zero.
	zeroOr := func(v float64) float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return v
	}
	for trial := 0; trial < 20_000; trial++ {
		p := DefaultParams()
		switch rng.Intn(4) {
		case 0:
			p.AnnualInterestRate = 0
		case 1:
			p.AnnualInterestRate = 0.2 * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			p.FinancingYears, p.ITAmortYears, p.BattAmortYears = years(), years(), years()
			p.DCAmortYears, p.PlantAmortYears, p.LandAmortYears = years(), years(), years()
		}
		if rng.Intn(4) == 0 {
			// All three financing periods equal.
			p.ITAmortYears, p.BattAmortYears = p.FinancingYears, p.FinancingYears
		}
		p.CreditNetMeter = rng.Float64()
		site := &location.Site{
			MaxPUE:             1 + rng.Float64(),
			LandPriceUSDPerM2:  zeroOr(200 * rng.Float64()),
			GridPriceUSDPerKWh: 0.2 * rng.Float64(),
			DistPowerKm:        zeroOr(50 * rng.Float64()),
			DistNetworkKm:      zeroOr(50 * rng.Float64()),
		}
		prov := Provision{
			CapacityKW: zeroOr(30_000 * rng.Float64()),
			SolarKW:    zeroOr(100_000 * rng.Float64()),
			WindKW:     zeroOr(100_000 * rng.Float64()),
			BatteryKWh: zeroOr(50_000 * rng.Float64()),
		}
		if rng.Intn(2) == 0 {
			prov.MaxPUE = 1 + rng.Float64()
		}
		if rng.Intn(10) == 0 {
			prov.CapacityKW, prov.SolarKW, prov.WindKW = 0, 0, 0
		}
		use := EnergyUse{
			BrownKWh:         zeroOr(1e8 * rng.Float64()),
			NetDischargedKWh: zeroOr(1e7 * rng.Float64()),
			NetChargedKWh:    zeroOr(1e7 * rng.Float64()),
		}

		got, want := p.MonthlySite(site, prov, use), refMonthlySite(p, site, prov, use)
		if breakdownBits(got) != breakdownBits(want) {
			t.Fatalf("trial %d: MonthlySite(%+v, %+v, %+v) with %+v\n got %+v\nwant %+v",
				trial, *site, prov, use, p, got, want)
		}

		principal := zeroOr(1e7 * rng.Float64())
		fy, ay := years(), years()
		if g, w := MonthlyFinanced(principal, p.AnnualInterestRate, fy, ay),
			refMonthlyFinanced(principal, p.AnnualInterestRate, fy, ay); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d: MonthlyFinanced(%v, %v, %d, %d) = %v, want %v",
				trial, principal, p.AnnualInterestRate, fy, ay, g, w)
		}
		if g, w := MonthlyInterestOnly(principal, p.AnnualInterestRate, fy, ay),
			refMonthlyInterestOnly(principal, p.AnnualInterestRate, fy, ay); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d: MonthlyInterestOnly(%v, %v, %d, %d) = %v, want %v",
				trial, principal, p.AnnualInterestRate, fy, ay, g, w)
		}
	}
}
