// Package weather generates synthetic Typical Meteorological Year (TMY)
// traces.
//
// The paper instantiates its framework with TMY data for 1373 real locations
// from the US Department of Energy (hourly temperature, solar irradiation,
// air pressure and wind speed).  That dataset is not redistributable, so this
// package produces deterministic synthetic equivalents: each location is
// assigned a climate archetype (desert, temperate, maritime, ridge, tropical,
// continental, polar) and a seed, and the generator derives an hourly year of
// weather from solar geometry, seasonal temperature cycles and a stochastic
// cloud/wind process.  The traces have the properties the placement
// framework depends on: realistic diurnal and seasonal solar shapes, solar
// capacity factors in the 8–25 % range, wind capacity factors from a few
// percent up to >50 % at ridge sites, and temperature series that map to the
// paper's PUE range of roughly 1.06–1.13.
package weather

import (
	"fmt"
	"math"
	"math/rand"
)

// Archetype identifies a coarse climate class used to parameterize the
// synthetic weather generator.
type Archetype int

// Climate archetypes.  They intentionally mirror the kinds of sites that
// show up in the paper's siting solutions: hot deserts (Harare, Nairobi,
// Phoenix-like: excellent sun, warm), windy ridges and lakefronts
// (Mount Washington, Burke Lakefront: exceptional wind, cold), temperate and
// continental mid-latitude sites, maritime coasts, tropics, and polar sites
// that pad the tail of the distribution.
const (
	Desert Archetype = iota + 1
	Temperate
	Maritime
	Ridge
	Tropical
	Continental
	Polar
)

var archetypeNames = map[Archetype]string{
	Desert:      "desert",
	Temperate:   "temperate",
	Maritime:    "maritime",
	Ridge:       "ridge",
	Tropical:    "tropical",
	Continental: "continental",
	Polar:       "polar",
}

// String returns the lower-case archetype name.
func (a Archetype) String() string {
	if s, ok := archetypeNames[a]; ok {
		return s
	}
	return fmt.Sprintf("archetype(%d)", int(a))
}

// params bundles the generator knobs for one archetype.
type params struct {
	// meanTempC is the annual mean air temperature.
	meanTempC float64
	// seasonalAmpC is the summer/winter swing amplitude (half peak-to-peak).
	seasonalAmpC float64
	// diurnalAmpC is the day/night swing amplitude.
	diurnalAmpC float64
	// cloudiness is the mean fraction of solar irradiance removed by
	// clouds (0 = always clear, 1 = always overcast).
	cloudiness float64
	// cloudVariability scales day-to-day cloud noise.
	cloudVariability float64
	// meanWind is the annual mean wind speed at hub height (m/s).
	meanWind float64
	// windVariability scales the gust/lull process.
	windVariability float64
	// windDiurnal is the amplitude of the diurnal wind cycle (m/s).
	windDiurnal float64
	// windWinterBoost is the extra winter mean wind (m/s).
	windWinterBoost float64
	// latitudeAbs is the typical absolute latitude in degrees.
	latitudeAbs float64
	// latitudeSpread is the +/- range around latitudeAbs.
	latitudeSpread float64
	// pressureKPa is the mean station pressure (altitude effect).
	pressureKPa float64
}

func archetypeParams(a Archetype) params {
	switch a {
	case Desert:
		return params{
			meanTempC: 24, seasonalAmpC: 9, diurnalAmpC: 9,
			cloudiness: 0.12, cloudVariability: 0.10,
			meanWind: 4.5, windVariability: 1.8, windDiurnal: 1.0, windWinterBoost: 0.3,
			latitudeAbs: 24, latitudeSpread: 10, pressureKPa: 98,
		}
	case Temperate:
		return params{
			meanTempC: 13, seasonalAmpC: 10, diurnalAmpC: 6,
			cloudiness: 0.38, cloudVariability: 0.22,
			meanWind: 5.5, windVariability: 2.4, windDiurnal: 0.8, windWinterBoost: 1.0,
			latitudeAbs: 42, latitudeSpread: 8, pressureKPa: 100,
		}
	case Maritime:
		return params{
			meanTempC: 11, seasonalAmpC: 6, diurnalAmpC: 4,
			cloudiness: 0.48, cloudVariability: 0.20,
			meanWind: 7.0, windVariability: 2.8, windDiurnal: 0.6, windWinterBoost: 1.6,
			latitudeAbs: 50, latitudeSpread: 8, pressureKPa: 101,
		}
	case Ridge:
		return params{
			meanTempC: 4, seasonalAmpC: 11, diurnalAmpC: 4,
			cloudiness: 0.45, cloudVariability: 0.25,
			meanWind: 11.5, windVariability: 3.6, windDiurnal: 0.5, windWinterBoost: 2.4,
			latitudeAbs: 45, latitudeSpread: 10, pressureKPa: 85,
		}
	case Tropical:
		return params{
			meanTempC: 26, seasonalAmpC: 2.5, diurnalAmpC: 6,
			cloudiness: 0.34, cloudVariability: 0.24,
			meanWind: 5.0, windVariability: 2.0, windDiurnal: 1.2, windWinterBoost: 0.0,
			latitudeAbs: 10, latitudeSpread: 10, pressureKPa: 100,
		}
	case Continental:
		return params{
			meanTempC: 9, seasonalAmpC: 15, diurnalAmpC: 8,
			cloudiness: 0.32, cloudVariability: 0.22,
			meanWind: 5.8, windVariability: 2.4, windDiurnal: 0.9, windWinterBoost: 1.2,
			latitudeAbs: 46, latitudeSpread: 8, pressureKPa: 99,
		}
	case Polar:
		return params{
			meanTempC: -4, seasonalAmpC: 14, diurnalAmpC: 3,
			cloudiness: 0.45, cloudVariability: 0.20,
			meanWind: 6.5, windVariability: 2.6, windDiurnal: 0.4, windWinterBoost: 1.8,
			latitudeAbs: 64, latitudeSpread: 6, pressureKPa: 100,
		}
	default:
		return archetypeParams(Temperate)
	}
}

// hoursPerYear is the length of a trace: a non-leap 365-day year, as in TMY
// datasets.
const hoursPerYear = 365 * 24

// Trace holds a full synthetic TMY for one site.  Each series holds one
// sample per hour of the year, hour h of day d at index d*24+h.
type Trace struct {
	// TemperatureC is the external air temperature in °C.
	TemperatureC []float64
	// IrradianceWm2 is global horizontal (plane-of-array approximated)
	// solar irradiance in W/m².
	IrradianceWm2 []float64
	// WindSpeedMs is wind speed at hub height in m/s.
	WindSpeedMs []float64
	// PressureKPa is station pressure in kPa (used for air density).
	PressureKPa []float64
}

// Generate builds the synthetic TMY for a site of the given archetype.  The
// same (archetype, seed) pair always yields the identical trace, which keeps
// every experiment in the repository reproducible.  Each call builds a fresh
// trace that the caller owns.
func Generate(a Archetype, seed int64) *Trace {
	p := archetypeParams(a)
	rng, lat := siteDraws(a, seed, p)

	// Per-site perturbations so two sites of the same archetype differ.
	meanTemp := p.meanTempC + rng.NormFloat64()*2.0
	meanWind := p.meanWind + rng.NormFloat64()*1.0
	if meanWind < 1.5 {
		meanWind = 1.5
	}
	cloudBase := clamp(p.cloudiness+rng.NormFloat64()*0.06, 0.02, 0.85)
	pressure := p.pressureKPa + rng.NormFloat64()*1.5
	latRad := lat * math.Pi / 180
	sinLat, cosLat := math.Sin(latRad), math.Cos(latRad)

	// Day-scale processes: cloud cover and synoptic wind vary with a few-day
	// correlation.  Generate per-day values first, then fill hours.
	dayCloud := make([]float64, 365)
	dayWind := make([]float64, 365)
	cloudState := cloudBase
	windState := meanWind
	for d := 0; d < 365; d++ {
		season := seasonFactor(d, lat)
		cloudTarget := cloudBase + 0.08*season // slightly cloudier winters
		cloudState = 0.6*cloudState + 0.4*cloudTarget + rng.NormFloat64()*p.cloudVariability
		dayCloud[d] = clamp(cloudState, 0, 0.95)

		windTarget := meanWind + p.windWinterBoost*season
		windState = 0.55*windState + 0.45*windTarget + rng.NormFloat64()*p.windVariability
		if windState < 0 {
			windState = 0
		}
		dayWind[d] = windState
	}

	temp := make([]float64, hoursPerYear)
	irr := make([]float64, hoursPerYear)
	wind := make([]float64, hoursPerYear)
	press := make([]float64, hoursPerYear)

	for d := 0; d < 365; d++ {
		season := seasonFactor(d, lat)
		for h := 0; h < 24; h++ {
			idx := d*24 + h
			// Temperature: seasonal + diurnal cycle (peak ~15:00) + noise.
			tVal := meanTemp - p.seasonalAmpC*season + p.diurnalAmpC*0.5*tempDiurnal[h] + rng.NormFloat64()*0.8
			temp[idx] = tVal

			// Solar irradiance: clear-sky from geometry × cloud attenuation.
			clear := clearSkyIrradiance(sinLat, cosLat, d, h)
			attenuation := 1 - dayCloud[d]*(0.75+0.25*rng.Float64())
			irr[idx] = math.Max(0, clear*attenuation)

			// Wind: synoptic day value + diurnal cycle (peak ~20:00) + gust noise.
			wDiurnal := p.windDiurnal * windDiurnal[h]
			wVal := dayWind[d] + wDiurnal + rng.NormFloat64()*0.8
			if wVal < 0 {
				wVal = 0
			}
			wind[idx] = wVal

			press[idx] = pressure + rng.NormFloat64()*0.3
		}
	}

	return &Trace{
		TemperatureC:  temp,
		IrradianceWm2: irr,
		WindSpeedMs:   wind,
		PressureKPa:   press,
	}
}

// siteDraws seeds the generator of the (a, seed) trace and makes its first
// draws: the site's signed latitude, which fixes its solar geometry and
// seasons.  Generate goes on drawing from the returned generator.
func siteDraws(a Archetype, seed int64, p params) (rng *rand.Rand, latitudeDeg float64) {
	rng = rand.New(rand.NewSource(seed*7919 + int64(a)*104729))
	lat := p.latitudeAbs + (rng.Float64()*2-1)*p.latitudeSpread
	if rng.Float64() < 0.25 { // a minority of sites in the southern hemisphere
		lat = -lat
	}
	return rng, lat
}

// The generator's trigonometry, tabulated once.  Every argument takes one
// of 24 hour-of-day or 365 day-of-year values (the latitude, the only other
// angle, is fixed per site), so each entry evaluates exactly the expression
// the per-hour loop would, and every product and sum built from the tables
// rounds as if it had been computed in place.
var (
	// tempDiurnal is the temperature's diurnal cycle, peaking at 15:00.
	tempDiurnal [24]float64
	// windDiurnal is the wind's diurnal cycle, peaking at 20:00.
	windDiurnal [24]float64
	// cosHourAngle is the cosine of the sun's hour angle, solar noon at 12:00.
	cosHourAngle [24]float64
	// seasonCos is the northern-hemisphere season cycle (see seasonFactor).
	seasonCos [365]float64
	// sinDecl and cosDecl are the sine and cosine of the solar declination.
	sinDecl, cosDecl [365]float64
)

func init() {
	for h := range 24 {
		tempDiurnal[h] = math.Cos(2 * math.Pi * float64(h-15) / 24)
		windDiurnal[h] = math.Sin(2 * math.Pi * float64(h-14) / 24)
		hourAngle := (float64(h) - 12) * 15 * math.Pi / 180
		cosHourAngle[h] = math.Cos(hourAngle)
	}
	for d := range 365 {
		// Northern-hemisphere winter is centred on day ~15 (mid January).
		seasonCos[d] = math.Cos(2 * math.Pi * float64(d-15) / 365)
		// Solar declination (Cooper's equation).
		decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*float64(284+d+1)/365)
		sinDecl[d], cosDecl[d] = math.Sin(decl), math.Cos(decl)
	}
}

// seasonFactor returns +1 in mid-winter and −1 in mid-summer for the site's
// hemisphere (day is 0-based day of year).
func seasonFactor(day int, latitudeDeg float64) float64 {
	f := seasonCos[day]
	if latitudeDeg < 0 {
		f = -f
	}
	return f
}

// clearSkyIrradiance returns an estimate of clear-sky global irradiance in
// W/m² for a site at the latitude whose sine and cosine are sinLat and
// cosLat, on the given day of year and local solar hour, using a simple
// solar-geometry model (declination + hour angle) with an atmospheric
// transmittance factor.
func clearSkyIrradiance(sinLat, cosLat float64, day, hour int) float64 {
	const solarConstant = 1361.0 // W/m²
	cosZenith := sinLat*sinDecl[day] + cosLat*cosDecl[day]*cosHourAngle[hour]
	if cosZenith <= 0 {
		return 0
	}
	// Simple clear-sky transmittance, with a mild air-mass penalty at low sun.
	transmittance := 0.75 * math.Pow(cosZenith, 0.15)
	return solarConstant * cosZenith * transmittance
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
