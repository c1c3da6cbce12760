// Package cost implements every cost component of the paper's placement
// framework (Table I): capital costs that are independent of datacenter size
// (power line, fiber), capital costs that scale with size (land, datacenter
// and plant construction, IT equipment, batteries), and operational costs
// (external bandwidth, brown electricity), together with the financing and
// amortization rules the paper applies to each component.
package cost

import (
	"errors"
	"fmt"
	"math"

	"greencloud/internal/location"
)

// MonthsPerYear is used when converting amortization periods to months.
const MonthsPerYear = 12

// Params are the framework's economic parameters with the paper's default
// values.  All prices are in US dollars.
type Params struct {
	// AreaDCM2PerKW is land needed per kW of datacenter capacity.
	AreaDCM2PerKW float64
	// AreaSolarM2PerKW is land needed per kW of solar plant capacity.
	AreaSolarM2PerKW float64
	// AreaWindM2PerKW is land needed per kW of wind plant capacity.
	AreaWindM2PerKW float64

	// PriceBuildDCSmallPerW is the construction price per Watt for
	// datacenters at or below LargeDCThresholdKW.
	PriceBuildDCSmallPerW float64
	// PriceBuildDCLargePerW is the construction price per Watt above the
	// threshold.
	PriceBuildDCLargePerW float64
	// LargeDCThresholdKW separates small from large datacenters (10 MW).
	LargeDCThresholdKW float64

	// PriceBuildSolarPerW is the installed price of solar capacity ($/W).
	PriceBuildSolarPerW float64
	// PriceBuildWindPerW is the installed price of wind capacity ($/W).
	PriceBuildWindPerW float64

	// PriceServerUSD is the purchase price of one server.
	PriceServerUSD float64
	// ServerPowerW is the maximum power draw of one server.
	ServerPowerW float64
	// PriceSwitchUSD is the purchase price of one network switch.
	PriceSwitchUSD float64
	// SwitchPowerW is the power draw of one switch.
	SwitchPowerW float64
	// ServersPerSwitch is the number of servers attached to each switch.
	ServersPerSwitch float64

	// PriceBattPerKWh is the purchase price of battery capacity.
	PriceBattPerKWh float64
	// BatteryEfficiency is the round-trip charging efficiency.
	BatteryEfficiency float64

	// PriceBWPerServerMonth is the monthly external bandwidth cost per
	// hosted server.
	PriceBWPerServerMonth float64

	// CostLinePowPerKm is the cost of laying a power transmission line.
	CostLinePowPerKm float64
	// CostLineNetPerKm is the cost of laying optical fiber.
	CostLineNetPerKm float64

	// CreditNetMeter is the fraction of the retail electricity price paid
	// for net-metered energy (1 = full retail price).
	CreditNetMeter float64

	// AnnualInterestRate is the financing interest rate (e.g. 0.0325).
	AnnualInterestRate float64
	// FinancingYears is the period over which CAPEX is financed.
	FinancingYears int
	// DCAmortYears is the amortization period of the datacenter shell,
	// cooling and power infrastructure (its lifetime).
	DCAmortYears int
	// PlantAmortYears is the amortization period of solar/wind plants.
	PlantAmortYears int
	// ITAmortYears is the replacement period of servers and switches.
	ITAmortYears int
	// BattAmortYears is the replacement period of batteries.
	BattAmortYears int
	// LandAmortYears spreads the land financing cost; land itself is
	// fully recoverable so only interest is charged.
	LandAmortYears int
}

// DefaultParams returns the paper's Table I defaults (2011 prices).
func DefaultParams() Params {
	return Params{
		AreaDCM2PerKW:         0.557,
		AreaSolarM2PerKW:      9.41,
		AreaWindM2PerKW:       18.21,
		PriceBuildDCSmallPerW: 15.0,
		PriceBuildDCLargePerW: 12.0,
		LargeDCThresholdKW:    10_000,
		PriceBuildSolarPerW:   5.25,
		PriceBuildWindPerW:    2.10,
		PriceServerUSD:        2000,
		ServerPowerW:          275,
		PriceSwitchUSD:        20_000,
		SwitchPowerW:          480,
		ServersPerSwitch:      32,
		PriceBattPerKWh:       200,
		BatteryEfficiency:     0.75,
		PriceBWPerServerMonth: 1.0,
		CostLinePowPerKm:      310_000,
		CostLineNetPerKm:      300_000,
		CreditNetMeter:        1.0,
		AnnualInterestRate:    0.0325,
		FinancingYears:        12,
		DCAmortYears:          12,
		PlantAmortYears:       24,
		ITAmortYears:          4,
		BattAmortYears:        4,
		LandAmortYears:        12,
	}
}

// Validate reports obviously broken parameter sets.
func (p Params) Validate() error {
	switch {
	case p.ServerPowerW <= 0 || p.ServersPerSwitch <= 0:
		return errors.New("cost: server power and servers-per-switch must be positive")
	case p.FinancingYears <= 0 || p.DCAmortYears <= 0 || p.PlantAmortYears <= 0 ||
		p.ITAmortYears <= 0 || p.BattAmortYears <= 0 || p.LandAmortYears <= 0:
		return errors.New("cost: financing and amortization periods must be positive")
	case p.AnnualInterestRate < 0:
		return errors.New("cost: interest rate must be non-negative")
	case p.BatteryEfficiency <= 0 || p.BatteryEfficiency > 1:
		return errors.New("cost: battery efficiency must be in (0,1]")
	case p.CreditNetMeter < 0 || p.CreditNetMeter > 1:
		return errors.New("cost: net metering credit must be in [0,1]")
	}
	return nil
}

// MonthlyFinanced returns the monthly cost of a capital expense of the given
// principal: the expense is financed over financingYears at the annual
// interest rate (standard annuity), and the resulting total (principal plus
// interest) is spread over amortYears of useful life.
func MonthlyFinanced(principal, annualRate float64, financingYears, amortYears int) float64 {
	return newAnnuity(annualRate, financingYears).monthly(principal, amortYears)
}

// MonthlyInterestOnly returns the monthly cost of an asset that is fully
// recoverable (the paper's treatment of land): only the financing interest
// is a real cost, spread over the amortization period.
func MonthlyInterestOnly(principal, annualRate float64, financingYears, amortYears int) float64 {
	return newAnnuity(annualRate, financingYears).monthlyInterest(principal, amortYears)
}

// annuity is a standard annuity loan over one financing period.  It holds
// the principal-independent part of the repayment, 1 − (1+r)^−months, so a
// caller pricing several expenses over the same period pays for math.Pow
// once.
type annuity struct {
	annualRate float64
	r          float64 // monthly rate
	months     float64
	denom      float64 // 1 − (1+r)^−months
}

func newAnnuity(annualRate float64, years int) annuity {
	a := annuity{annualRate: annualRate, months: float64(years * MonthsPerYear)}
	if annualRate != 0 {
		a.r = annualRate / MonthsPerYear
		a.denom = 1 - math.Pow(1+a.r, -a.months)
	}
	return a
}

// total is the total amount repaid on principal.
func (a annuity) total(principal float64) float64 {
	if a.annualRate == 0 {
		return principal
	}
	payment := principal * a.r / a.denom
	return payment * a.months
}

// monthly is MonthlyFinanced over this annuity's financing period.
func (a annuity) monthly(principal float64, amortYears int) float64 {
	if principal <= 0 {
		return 0
	}
	return a.total(principal) / float64(amortYears*MonthsPerYear)
}

// monthlyInterest is MonthlyInterestOnly over this annuity's financing
// period.
func (a annuity) monthlyInterest(principal float64, amortYears int) float64 {
	if principal <= 0 {
		return 0
	}
	interest := a.total(principal) - principal
	if interest < 0 {
		interest = 0
	}
	return interest / float64(amortYears*MonthsPerYear)
}

// Provision describes how a site is built out: the IT capacity of the
// datacenter and the sizes of its on-site plants and battery bank.
type Provision struct {
	// CapacityKW is the compute (IT) power capacity of the datacenter.
	CapacityKW float64
	// MaxPUE is the worst-case PUE used to size power and cooling.
	MaxPUE float64
	// SolarKW is the installed solar plant capacity.
	SolarKW float64
	// WindKW is the installed wind plant capacity.
	WindKW float64
	// BatteryKWh is the installed battery capacity.
	BatteryKWh float64
}

// EnergyUse summarizes one year of operation for the brown-energy bill.
type EnergyUse struct {
	// BrownKWh is grid energy drawn directly (not via net metering).
	BrownKWh float64
	// NetDischargedKWh is energy drawn back from the grid against
	// previously net-metered credit.
	NetDischargedKWh float64
	// NetChargedKWh is green energy pushed into the grid for later use.
	NetChargedKWh float64
}

// NumServers returns the number of servers a datacenter of the given IT
// capacity hosts, accounting for the share of switch power per server
// (Table I's numServers(d)).
func (p Params) NumServers(capacityKW float64) float64 {
	perServerW := p.ServerPowerW + p.SwitchPowerW/p.ServersPerSwitch
	return capacityKW * 1000 / perServerW
}

// BuildDCPricePerW returns the construction price per Watt for a datacenter
// whose total (IT × maxPUE) power is totalKW.
func (p Params) BuildDCPricePerW(totalKW float64) float64 {
	if totalKW > p.LargeDCThresholdKW {
		return p.PriceBuildDCLargePerW
	}
	return p.PriceBuildDCSmallPerW
}

// Breakdown is the monthly cost of one provisioned site, split the same way
// as Fig. 7 of the paper.  All values are USD per month.
type Breakdown struct {
	LandDC           float64 `json:"landDC"`
	LandPlant        float64 `json:"landPlant"`
	BuildDC          float64 `json:"buildDC"`
	BuildSolar       float64 `json:"buildSolar"`
	BuildWind        float64 `json:"buildWind"`
	ITEquipment      float64 `json:"itEquipment"`
	Battery          float64 `json:"battery"`
	ConnectionPower  float64 `json:"connectionPower"`
	ConnectionFiber  float64 `json:"connectionFiber"`
	NetworkBandwidth float64 `json:"networkBandwidth"`
	BrownEnergy      float64 `json:"brownEnergy"`
}

// Total returns the total monthly cost.
func (b Breakdown) Total() float64 {
	return b.LandDC + b.LandPlant + b.BuildDC + b.BuildSolar + b.BuildWind +
		b.ITEquipment + b.Battery + b.ConnectionPower + b.ConnectionFiber +
		b.NetworkBandwidth + b.BrownEnergy
}

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		LandDC:           b.LandDC + o.LandDC,
		LandPlant:        b.LandPlant + o.LandPlant,
		BuildDC:          b.BuildDC + o.BuildDC,
		BuildSolar:       b.BuildSolar + o.BuildSolar,
		BuildWind:        b.BuildWind + o.BuildWind,
		ITEquipment:      b.ITEquipment + o.ITEquipment,
		Battery:          b.Battery + o.Battery,
		ConnectionPower:  b.ConnectionPower + o.ConnectionPower,
		ConnectionFiber:  b.ConnectionFiber + o.ConnectionFiber,
		NetworkBandwidth: b.NetworkBandwidth + o.NetworkBandwidth,
		BrownEnergy:      b.BrownEnergy + o.BrownEnergy,
	}
}

// String formats the breakdown in millions of dollars per month.
func (b Breakdown) String() string {
	return fmt.Sprintf(
		"total=%.2fM$ (buildDC=%.2f it=%.2f plants=%.2f land=%.2f conn=%.2f bw=%.2f brown=%.2f batt=%.2f)",
		b.Total()/1e6, b.BuildDC/1e6, b.ITEquipment/1e6,
		(b.BuildSolar+b.BuildWind)/1e6, (b.LandDC+b.LandPlant)/1e6,
		(b.ConnectionPower+b.ConnectionFiber)/1e6, b.NetworkBandwidth/1e6,
		b.BrownEnergy/1e6, b.Battery/1e6)
}

// MonthlySite computes the monthly cost breakdown of one site given its
// provisioning and a year of energy use.  It computes the annuity factor of
// each financing period (FinancingYears, ITAmortYears, BattAmortYears) once,
// not once per cost component.
func (p Params) MonthlySite(site *location.Site, prov Provision, use EnergyUse) Breakdown {
	var b Breakdown
	if prov.CapacityKW <= 0 && prov.SolarKW <= 0 && prov.WindKW <= 0 {
		// Nothing is built: a site that is not selected costs nothing.
		return b
	}
	maxPUE := prov.MaxPUE
	if maxPUE <= 0 {
		maxPUE = site.MaxPUE
	}
	fin := newAnnuity(p.AnnualInterestRate, p.FinancingYears)
	it := fin
	if p.ITAmortYears != p.FinancingYears {
		it = newAnnuity(p.AnnualInterestRate, p.ITAmortYears)
	}
	batt := it
	if p.BattAmortYears != p.ITAmortYears {
		batt = newAnnuity(p.AnnualInterestRate, p.BattAmortYears)
	}

	// CAPEX independent of size: power line and fiber to the site.
	b.ConnectionPower = fin.monthly(site.DistPowerKm*p.CostLinePowPerKm, p.DCAmortYears)
	b.ConnectionFiber = fin.monthly(site.DistNetworkKm*p.CostLineNetPerKm, p.DCAmortYears)

	// Land (fully recoverable: financing interest only).
	landDCUSD := site.LandPriceUSDPerM2 * prov.CapacityKW * p.AreaDCM2PerKW
	landPlantUSD := site.LandPriceUSDPerM2 * (prov.SolarKW*p.AreaSolarM2PerKW + prov.WindKW*p.AreaWindM2PerKW)
	b.LandDC = fin.monthlyInterest(landDCUSD, p.LandAmortYears)
	b.LandPlant = fin.monthlyInterest(landPlantUSD, p.LandAmortYears)

	// Datacenter construction, sized by total (IT × maxPUE) power.
	totalKW := prov.CapacityKW * maxPUE
	buildDCUSD := totalKW * 1000 * p.BuildDCPricePerW(totalKW)
	b.BuildDC = fin.monthly(buildDCUSD, p.DCAmortYears)

	// Green plants.
	b.BuildSolar = fin.monthly(prov.SolarKW*1000*p.PriceBuildSolarPerW, p.PlantAmortYears)
	b.BuildWind = fin.monthly(prov.WindKW*1000*p.PriceBuildWindPerW, p.PlantAmortYears)

	// IT equipment: servers plus switches, replaced every ITAmortYears.
	servers := p.NumServers(prov.CapacityKW)
	itUSD := servers*p.PriceServerUSD + (servers/p.ServersPerSwitch)*p.PriceSwitchUSD
	b.ITEquipment = it.monthly(itUSD, p.ITAmortYears)

	// Batteries.
	b.Battery = batt.monthly(prov.BatteryKWh*p.PriceBattPerKWh, p.BattAmortYears)

	// OPEX: external bandwidth and the brown electricity bill.
	b.NetworkBandwidth = servers * p.PriceBWPerServerMonth
	yearlyBrownUSD := site.GridPriceUSDPerKWh *
		(use.BrownKWh + use.NetDischargedKWh - p.CreditNetMeter*use.NetChargedKWh)
	b.BrownEnergy = yearlyBrownUSD / MonthsPerYear

	return b
}

// CapIndependentUSD returns the one-time size-independent CAPEX of a site
// (CAP_ind(d) in the paper): laying the power line and the fiber.
func (p Params) CapIndependentUSD(site *location.Site) float64 {
	return site.DistPowerKm*p.CostLinePowPerKm + site.DistNetworkKm*p.CostLineNetPerKm
}
