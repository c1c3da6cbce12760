// Package location builds the catalog of candidate datacenter sites used by
// the placement framework: for every site it derives the solar production
// factor α(d,t), the wind production factor β(d,t), the PUE profile, land and
// grid-electricity prices, and the distances to the nearest transmission line
// and network backbone.
//
// The paper uses 1373 real TMY locations; we generate the same number of
// synthetic sites from climate archetypes (see internal/weather) with
// correlated economic attributes, preserving the joint distribution that
// drives the siting results: windy ridge sites are cold (low PUE) but remote
// and land-expensive, sunny desert sites are hot (higher PUE) with cheap
// land, and continental sites near infrastructure offer the cheapest brown
// energy.
package location

import "greencloud/internal/weather"

// Photovoltaic model constants.  The installed capacity of a PV plant is its
// rating at standard test conditions (1000 W/m², 25 °C cell temperature), so
// the production factor α is relative to that rating; module efficiency is
// already folded into the rating and only temperature derating and
// balance-of-system losses remain.
const (
	// pvReferenceIrradiance is the STC irradiance in W/m².
	pvReferenceIrradiance = 1000.0
	// pvTempCoefficient is the output derating per °C of cell temperature
	// above 25 °C (typical multi-crystalline silicon).
	pvTempCoefficient = 0.005
	// pvNOCTRise is the cell temperature rise above ambient at full sun
	// (°C per W/m² of irradiance), from the NOCT model.
	pvNOCTRise = 30.0 / 800.0
	// pvSystemEfficiency bundles inverter and DC→AC conversion losses.
	pvSystemEfficiency = 0.90
)

// Wind turbine model constants, loosely following the Enercon E-126 that the
// paper uses (7.6 MW rated, ~50 % aerodynamic efficiency).
const (
	windCutInMs        = 3.0
	windRatedMs        = 12.5
	windCutOutMs       = 25.0
	windSystemLoss     = 0.95
	standardAirDensity = 1.225 // kg/m³ at sea level, 15 °C
	gasConstantDryAir  = 287.05
)

// SolarAlpha returns the instantaneous solar production factor α for the
// given irradiance (W/m²) and ambient temperature (°C): the fraction of the
// installed (STC-rated) capacity the plant produces after temperature
// derating and conversion losses.
func SolarAlpha(irradianceWm2, ambientC float64) float64 {
	if irradianceWm2 <= 0 {
		return 0
	}
	cellTemp := ambientC + pvNOCTRise*irradianceWm2
	derate := 1 - pvTempCoefficient*(cellTemp-25)
	if derate < 0 {
		derate = 0
	}
	alpha := (irradianceWm2 / pvReferenceIrradiance) * derate * pvSystemEfficiency
	if alpha < 0 {
		return 0
	}
	if alpha > 1 {
		return 1
	}
	return alpha
}

// WindBeta returns the instantaneous wind production factor β for the given
// wind speed (m/s), station pressure (kPa) and air temperature (°C): the
// fraction of the turbine's rated capacity it produces.
func WindBeta(windMs, pressureKPa, tempC float64) float64 {
	if windMs < windCutInMs || windMs >= windCutOutMs {
		return 0
	}
	density := pressureKPa * 1000 / (gasConstantDryAir * (tempC + 273.15))
	densityRatio := density / standardAirDensity
	var frac float64
	if windMs >= windRatedMs {
		frac = 1
	} else {
		// Cubic ramp between cut-in and rated speed.  x*x*x is bit-identical
		// to math.Pow(x, 3): Pow's integer-exponent path computes m·(m·m)
		// on x's Frexp mantissa m, rounding after each product exactly as
		// x·x·x does, and its power-of-two rescalings are exact, because
		// 0 ≤ x < 1 and a nonzero x is at least the cut-in speed's ulp
		// over (rated − cut-in), so the cube never nears the subnormals.
		x := (windMs - windCutInMs) / (windRatedMs - windCutInMs)
		frac = x * x * x
	}
	beta := frac * densityRatio * windSystemLoss
	if beta > 1 {
		beta = 1
	}
	return beta
}

// SolarSeries writes the hourly α(t) trace of a weather trace into dst
// (HoursPerYear long).
func SolarSeries(dst []float64, tr *weather.Trace) {
	irr, temp := tr.IrradianceWm2[:len(dst)], tr.TemperatureC[:len(dst)]
	for i := range dst {
		dst[i] = SolarAlpha(irr[i], temp[i])
	}
}

// WindSeries writes the hourly β(t) trace of a weather trace into dst
// (HoursPerYear long).
func WindSeries(dst []float64, tr *weather.Trace) {
	wind, press, temp := tr.WindSpeedMs[:len(dst)], tr.PressureKPa[:len(dst)], tr.TemperatureC[:len(dst)]
	for i := range dst {
		dst[i] = WindBeta(wind[i], press[i], temp[i])
	}
}
