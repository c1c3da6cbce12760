// Package pue models datacenter Power Usage Effectiveness as a function of
// external air temperature, following Fig. 4 of the paper.
//
// The curve was measured on a micro-datacenter (Parasol) that combines an
// air-side economizer ("free cooling") with a direct-expansion air
// conditioner: below roughly 15 °C the economizer alone keeps the PUE near
// its floor, and as the outside temperature rises the air conditioner takes
// over and the PUE climbs towards ~1.4 at 45 °C.
package pue

// curve is the piecewise-linear PUE(temperature) relation of Fig. 4,
// expressed as (temperature °C, PUE) knots.
var curve = []struct {
	tempC float64
	pue   float64
}{
	{15, 1.05},
	{20, 1.065},
	{25, 1.10},
	{30, 1.155},
	{35, 1.23},
	{40, 1.32},
	{45, 1.40},
}

// FromTemperature returns the instantaneous PUE for the given external air
// temperature in °C.  Temperatures below the first knot return the floor;
// temperatures above the last knot are clamped to the final value.
func FromTemperature(tempC float64) float64 {
	if tempC <= curve[0].tempC {
		return curve[0].pue
	}
	last := curve[len(curve)-1]
	if tempC >= last.tempC {
		return last.pue
	}
	for i := 1; i < len(curve); i++ {
		if tempC <= curve[i].tempC {
			lo, hi := curve[i-1], curve[i]
			frac := (tempC - lo.tempC) / (hi.tempC - lo.tempC)
			return lo.pue + frac*(hi.pue-lo.pue)
		}
	}
	return last.pue
}

// Series writes the PUE of every sample of the temperature trace
// temperatureC into dst (of the same length).
func Series(dst, temperatureC []float64) {
	temperatureC = temperatureC[:len(dst)]
	for i, t := range temperatureC {
		dst[i] = FromTemperature(t)
	}
}

// Curve returns the (temperature, PUE) pairs for a sweep between lo and hi
// °C with the given step, used to regenerate Fig. 4.
func Curve(lo, hi, step float64) (temps, pues []float64) {
	if step <= 0 {
		step = 1
	}
	for t := lo; t <= hi+1e-9; t += step {
		temps = append(temps, t)
		pues = append(pues, FromTemperature(t))
	}
	return temps, pues
}
