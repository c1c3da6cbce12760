package location

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"greencloud/internal/pue"
	"greencloud/internal/series"
	"greencloud/internal/weather"
)

// HoursPerYear is the number of hourly slots in a typical meteorological
// year.  TMY datasets use a non-leap 365-day year.
const HoursPerYear = 365 * HoursPerDay

// HoursPerDay is the number of hourly slots, and of epochs, in a day.
const HoursPerDay = 24

// Site is one candidate datacenter location with everything the placement
// framework needs to know about it.
type Site struct {
	// ID is the index of the site within its catalog.
	ID int
	// Name is a human-readable synthetic name, e.g. "ridge-0042".
	Name string
	// Archetype is the climate class the site was generated from.
	Archetype weather.Archetype
	// UTCOffsetHours is the site's time zone (0..23 hours east of UTC).
	// The per-epoch profiles below are expressed on a shared UTC clock so
	// that "follow the renewables" across longitudes behaves like the
	// paper's world-wide network (when it is night at one site it can be
	// day at another).
	UTCOffsetHours int

	// SolarCapacityFactor is the yearly average of α(d,t).
	SolarCapacityFactor float64
	// WindCapacityFactor is the yearly average of β(d,t).
	WindCapacityFactor float64
	// AvgPUE is the yearly average PUE implied by the temperature trace.
	AvgPUE float64
	// MaxPUE is the worst-case PUE, used to size power/cooling (maxPUE(d)).
	MaxPUE float64

	// LandPriceUSDPerM2 is the industrial land price (priceLand(d)).
	LandPriceUSDPerM2 float64
	// GridPriceUSDPerKWh is the brown electricity price (priceEnergy(d)).
	GridPriceUSDPerKWh float64
	// DistPowerKm is the distance to the nearest transmission line or
	// power plant, which sets costLinePow(d).
	DistPowerKm float64
	// DistNetworkKm is the distance to the nearest backbone connection
	// point, which sets costLineNet(d).
	DistNetworkKm float64
	// NearestPlantKW is the capacity of the nearest brown power plant,
	// which caps how much grid power the site may draw (nearPlantCap(d)).
	NearestPlantKW float64

	// Alpha, Beta and PUE are the per-epoch profiles (see
	// Catalog.Epochs): Alpha[i] is the solar production factor during
	// epoch i, Beta[i] the wind production factor, PUE[i] the PUE.  Each
	// is a row of one of three series.Blocks written once when the catalog
	// is generated and shared, read-only, by the catalog and its subsets.
	Alpha []float64
	Beta  []float64
	PUE   []float64

	seed int64
}

// HourlyProfilesUTC regenerates the site's weather year and writes its
// hourly α, β and PUE traces, on the shared UTC clock of the per-epoch
// Alpha/Beta/PUE profiles, into alpha, beta and pueH (each HoursPerYear
// long).
func (s *Site) HourlyProfilesUTC(alpha, beta, pueH []float64) {
	hourlyUTC(weather.Generate(s.Archetype, s.seed), s.UTCOffsetHours, alpha, beta, pueH)
}

// hourlyUTC derives a site's hourly α, β and PUE traces from its weather
// trace into alpha, beta and pueH (each HoursPerYear long), then rotates
// them from the site's local solar time onto the shared UTC clock: a site
// k hours east of Greenwich sees local noon k hours before UTC noon, so UTC
// hour i holds local hour i+offset.  It returns the yearly summaries of the
// local-time traces: the solar and wind capacity factors and the average
// and maximum PUE.
func hourlyUTC(tr *weather.Trace, offset int, alpha, beta, pueH []float64) (solarCF, windCF, avgPUE, maxPUE float64) {
	SolarSeries(alpha, tr)
	WindSeries(beta, tr)
	pue.Series(pueH, tr.TemperatureC)
	solarCF, windCF, avgPUE, maxPUE = mean(alpha), mean(beta), mean(pueH), slices.Max(pueH)
	rotate(alpha, offset)
	rotate(beta, offset)
	rotate(pueH, offset)
	return solarCF, windCF, avgPUE, maxPUE
}

func mean(x []float64) float64 { return series.Sum(x) / float64(len(x)) }

// rotate shifts row left by offset (0 ≤ offset < HoursPerDay) in place,
// wrapping around: row[i] becomes the old row[(i+offset) mod len(row)].
func rotate(row []float64, offset int) {
	var head [HoursPerDay]float64
	copy(head[:], row[:offset])
	n := copy(row, row[offset:])
	copy(row[n:], head[:offset])
}

// reduce collapses an hourly year trace onto len(dst)/HoursPerDay
// representative days, each covering an equal share of the 365-day year:
// dst[d*HoursPerDay+h] is the average of hour h over the real days that
// representative day d covers.  This keeps diurnal shape exact and smooths
// day-to-day weather noise, which is what the placement optimizer needs
// (the paper aggregates hourly TMY data in the same spirit).
func reduce(dst, hourly []float64) {
	days := len(dst) / HoursPerDay
	chunk := 365.0 / float64(days)
	for d := 0; d < days; d++ {
		startDay := int(math.Floor(chunk * float64(d)))
		endDay := int(math.Floor(chunk * float64(d+1)))
		if endDay <= startDay {
			endDay = startDay + 1
		}
		if endDay > 365 {
			endDay = 365
		}
		for h := 0; h < HoursPerDay; h++ {
			sum := 0.0
			for day := startDay; day < endDay; day++ {
				sum += hourly[day*HoursPerDay+h]
			}
			dst[d*HoursPerDay+h] = sum / float64(endDay-startDay)
		}
	}
}

// Catalog is a set of candidate sites whose per-epoch profiles share one
// reduction of the year to representative days.
type Catalog struct {
	days  int
	sites []*Site
	byID  map[int]int // site ID → position in sites
}

func newCatalog(days int, sites []*Site) *Catalog {
	byID := make(map[int]int, len(sites))
	for i, s := range sites {
		byID[s.ID] = i
	}
	return &Catalog{days: days, sites: sites, byID: byID}
}

// Options configures catalog generation.
type Options struct {
	// Count is the number of sites to generate.  Zero means the paper's
	// 1373 locations.
	Count int
	// Seed makes the catalog reproducible.  Two catalogs generated with
	// the same Count, Seed and RepresentativeDays are identical.
	Seed int64
	// RepresentativeDays is the number of representative days in the
	// reduction grid (default 4: one per season).
	RepresentativeDays int
}

// DefaultCount is the number of locations the paper's dataset contains.
const DefaultCount = 1373

// DefaultRepresentativeDays is the default reduction grid (one day per
// season), which keeps the provisioning LPs small while retaining the
// diurnal and seasonal structure the results depend on.
const DefaultRepresentativeDays = 4

// archetypeShare controls the mix of climates in a generated catalog.  The
// proportions are chosen so the capacity-factor CDFs have the shape of
// Fig. 3: most locations have solar capacity factors between ~13 % and ~23 %
// and wind capacity factors below solar, with a small set of exceptional
// wind sites at the top of the wind curve.
var archetypeShare = []struct {
	arch  weather.Archetype
	share float64
}{
	{weather.Temperate, 0.27},
	{weather.Continental, 0.20},
	{weather.Maritime, 0.14},
	{weather.Desert, 0.16},
	{weather.Tropical, 0.12},
	{weather.Ridge, 0.07},
	{weather.Polar, 0.04},
}

// economics holds the per-archetype price/distance distributions.
type economics struct {
	landMean, landSpread    float64 // USD per m²
	elecMean, elecSpread    float64 // USD per kWh
	distPowMean, distPowMax float64 // km
	distNetMean, distNetMax float64 // km
	plantMinKW, plantMaxKW  float64
	nameHint                string
}

func archetypeEconomics(a weather.Archetype) economics {
	switch a {
	case weather.Desert:
		return economics{landMean: 16, landSpread: 12, elecMean: 0.095, elecSpread: 0.025,
			distPowMean: 120, distPowMax: 450, distNetMean: 120, distNetMax: 450,
			plantMinKW: 100e3, plantMaxKW: 900e3, nameHint: "desert"}
	case weather.Temperate:
		return economics{landMean: 320, landSpread: 200, elecMean: 0.105, elecSpread: 0.030,
			distPowMean: 30, distPowMax: 120, distNetMean: 20, distNetMax: 100,
			plantMinKW: 300e3, plantMaxKW: 2.5e6, nameHint: "temperate"}
	case weather.Maritime:
		return economics{landMean: 420, landSpread: 250, elecMean: 0.125, elecSpread: 0.035,
			distPowMean: 35, distPowMax: 160, distNetMean: 25, distNetMax: 120,
			plantMinKW: 200e3, plantMaxKW: 1.8e6, nameHint: "maritime"}
	case weather.Ridge:
		return economics{landMean: 620, landSpread: 320, elecMean: 0.105, elecSpread: 0.030,
			distPowMean: 220, distPowMax: 460, distNetMean: 50, distNetMax: 200,
			plantMinKW: 150e3, plantMaxKW: 1.2e6, nameHint: "ridge"}
	case weather.Tropical:
		return economics{landMean: 30, landSpread: 22, elecMean: 0.085, elecSpread: 0.030,
			distPowMean: 140, distPowMax: 420, distNetMean: 150, distNetMax: 420,
			plantMinKW: 100e3, plantMaxKW: 800e3, nameHint: "tropical"}
	case weather.Continental:
		return economics{landMean: 70, landSpread: 55, elecMean: 0.055, elecSpread: 0.020,
			distPowMean: 20, distPowMax: 90, distNetMean: 15, distNetMax: 80,
			plantMinKW: 400e3, plantMaxKW: 3e6, nameHint: "continental"}
	case weather.Polar:
		return economics{landMean: 45, landSpread: 35, elecMean: 0.115, elecSpread: 0.035,
			distPowMean: 260, distPowMax: 600, distNetMean: 220, distNetMax: 600,
			plantMinKW: 100e3, plantMaxKW: 600e3, nameHint: "polar"}
	default:
		return archetypeEconomics(weather.Temperate)
	}
}

// Generate builds a reproducible catalog of candidate sites, deriving the
// sites' weather and profiles on a GOMAXPROCS worker pool; the catalog does
// not depend on the pool's size.
func Generate(opts Options) (*Catalog, error) {
	count := opts.Count
	if count == 0 {
		count = DefaultCount
	}
	if count < 1 {
		return nil, fmt.Errorf("location: invalid site count %d", count)
	}
	repDays := opts.RepresentativeDays
	if repDays == 0 {
		repDays = DefaultRepresentativeDays
	}
	if repDays < 1 || repDays > 365 {
		return nil, fmt.Errorf("location: representative day count %d outside 1..365", repDays)
	}

	// Phase 1, serial: every draw from the shared catalog RNG, in site
	// order — archetype, time zone, then the economics.  Sites are spread
	// across time zones; the stored per-epoch profiles are on a shared UTC
	// clock so the optimizer can follow the sun around the globe.
	rng := rand.New(rand.NewSource(opts.Seed*2654435761 + 17))
	sites := make([]*Site, count)
	counters := make(map[weather.Archetype]int, len(archetypeShare))
	for i := range sites {
		arch := pickArchetype(rng, i, count)
		counters[arch]++
		eco := archetypeEconomics(arch)
		s := &Site{ID: i, Archetype: arch, seed: opts.Seed*1_000_003 + int64(i)}
		s.Name = fmt.Sprintf("%s-%04d", eco.nameHint, counters[arch])
		s.UTCOffsetHours = rng.Intn(24)
		s.LandPriceUSDPerM2 = positiveNormal(rng, eco.landMean, eco.landSpread, 2)
		s.GridPriceUSDPerKWh = positiveNormal(rng, eco.elecMean, eco.elecSpread, 0.02)
		s.DistPowerKm = boundedExp(rng, eco.distPowMean, eco.distPowMax, 2)
		s.DistNetworkKm = boundedExp(rng, eco.distNetMean, eco.distNetMax, 1)
		s.NearestPlantKW = eco.plantMinKW + rng.Float64()*(eco.plantMaxKW-eco.plantMinKW)
		sites[i] = s
	}

	// Phase 2, on a GOMAXPROCS worker pool: each site's weather year,
	// hourly α/β/PUE traces and summaries depend only on its own
	// (archetype, seed), and its per-epoch profiles are row i of these
	// Blocks, so a worker writes nothing another reads and the catalog is
	// the same whichever worker derives which site.  Each worker reduces
	// from its own hourly scratch year.
	epochs := repDays * HoursPerDay
	alpha, beta, pueP := series.NewBlock(count, epochs), series.NewBlock(count, epochs), series.NewBlock(count, epochs)
	workers := min(runtime.GOMAXPROCS(0), count)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			year := series.NewBlock(3, HoursPerYear)
			for {
				i := int(next.Add(1))
				if i >= count {
					return
				}
				s := sites[i]
				s.SolarCapacityFactor, s.WindCapacityFactor, s.AvgPUE, s.MaxPUE =
					hourlyUTC(weather.Generate(s.Archetype, s.seed), s.UTCOffsetHours, year.Row(0), year.Row(1), year.Row(2))
				s.Alpha, s.Beta, s.PUE = alpha.Row(i), beta.Row(i), pueP.Row(i)
				reduce(s.Alpha, year.Row(0))
				reduce(s.Beta, year.Row(1))
				reduce(s.PUE, year.Row(2))
			}
		}()
	}
	wg.Wait()
	return newCatalog(repDays, sites), nil
}

// pickArchetype assigns archetypes deterministically so the catalog has the
// configured proportions regardless of size, with the RNG breaking ties.
func pickArchetype(rng *rand.Rand, index, total int) weather.Archetype {
	// Deterministic stratified assignment: walk the cumulative shares.
	pos := (float64(index) + rng.Float64()*0.5) / float64(total)
	cum := 0.0
	for _, s := range archetypeShare {
		cum += s.share
		if pos < cum {
			return s.arch
		}
	}
	return archetypeShare[len(archetypeShare)-1].arch
}

// positiveNormal draws a normal sample clamped to a floor.
func positiveNormal(rng *rand.Rand, mean, spread, floor float64) float64 {
	v := mean + rng.NormFloat64()*spread
	if v < floor {
		return floor
	}
	return v
}

// boundedExp draws an exponential-ish distance with the given mean, clamped
// to [min, max].
func boundedExp(rng *rand.Rand, mean, max, min float64) float64 {
	v := rng.ExpFloat64() * mean
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Epochs returns the length of every site's per-epoch profiles: the
// representative days × HoursPerDay, chronological (day-major, hour-minor),
// which the optimizer relies on when chaining battery levels and
// migration terms across consecutive epochs.
func (c *Catalog) Epochs() int { return c.days * HoursPerDay }

// EpochWeight returns the number of real days each representative day,
// and so each epoch, stands for: an epoch contributes value × EpochWeight
// × 1 h of energy over the year.
func (c *Catalog) EpochWeight() float64 { return 365.0 / float64(c.days) }

// Len returns the number of sites.
func (c *Catalog) Len() int { return len(c.sites) }

// Sites returns the catalog's sites.  The returned slice is a copy; the Site
// pointers are shared.
func (c *Catalog) Sites() []*Site {
	out := make([]*Site, len(c.sites))
	copy(out, c.sites)
	return out
}

// Site returns the site with the given ID.  IDs are stable across Subset, so
// a site keeps its identity when a filtered catalog is derived from the full
// one.
func (c *Catalog) Site(id int) (*Site, error) {
	i, err := c.Index(id)
	if err != nil {
		return nil, err
	}
	return c.sites[i], nil
}

// Index returns the position in Sites of the site with the given ID.
func (c *Catalog) Index(id int) (int, error) {
	if i, ok := c.byID[id]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("location: site %d not in this catalog (%d sites)", id, len(c.sites))
}

// Subset returns a new catalog containing only the sites with the given
// IDs, in the given order.  The sites keep their IDs and their profiles.
func (c *Catalog) Subset(ids []int) (*Catalog, error) {
	sites := make([]*Site, 0, len(ids))
	for _, id := range ids {
		s, err := c.Site(id)
		if err != nil {
			return nil, err
		}
		sites = append(sites, s)
	}
	return newCatalog(c.days, sites), nil
}

// SolarCapacityFactors returns the per-site solar capacity factors.
func (c *Catalog) SolarCapacityFactors() []float64 {
	out := make([]float64, len(c.sites))
	for i, s := range c.sites {
		out[i] = s.SolarCapacityFactor
	}
	return out
}

// WindCapacityFactors returns the per-site wind capacity factors.
func (c *Catalog) WindCapacityFactors() []float64 {
	out := make([]float64, len(c.sites))
	for i, s := range c.sites {
		out[i] = s.WindCapacityFactor
	}
	return out
}

// AvgPUEs returns the per-site average PUEs.
func (c *Catalog) AvgPUEs() []float64 {
	out := make([]float64, len(c.sites))
	for i, s := range c.sites {
		out[i] = s.AvgPUE
	}
	return out
}

// TopByWindCF returns the n sites with the highest wind capacity factor,
// best first.
func (c *Catalog) TopByWindCF(n int) []*Site {
	return c.topBy(n, func(s *Site) float64 { return s.WindCapacityFactor })
}

// TopBySolarCF returns the n sites with the highest solar capacity factor,
// best first.
func (c *Catalog) TopBySolarCF(n int) []*Site {
	return c.topBy(n, func(s *Site) float64 { return s.SolarCapacityFactor })
}

// SpreadAcrossTimeZones picks n of the given sites whose UTC offsets are as
// far apart as possible, so that the sun is always shining on one of them:
// the first site, then repeatedly the not-yet-picked site farthest (in
// circular hours) from every site already picked, ties going to the earlier
// one.  With n or fewer sites it returns them all, in input order.
func SpreadAcrossTimeZones(sites []*Site, n int) []*Site {
	if len(sites) <= n {
		return append([]*Site(nil), sites...)
	}
	picked := []*Site{sites[0]}
	for len(picked) < n {
		var best *Site
		bestDist := -1.0
		for _, cand := range sites {
			if slices.Contains(picked, cand) {
				continue
			}
			dist := math.Inf(1)
			for _, p := range picked {
				dist = math.Min(dist, hourDistance(cand.UTCOffsetHours, p.UTCOffsetHours))
			}
			if dist > bestDist {
				bestDist, best = dist, cand
			}
		}
		if best == nil {
			break // only duplicates of picked sites remain
		}
		picked = append(picked, best)
	}
	return picked
}

// hourDistance is the distance between two UTC offsets around the 24-hour
// clock.
func hourDistance(a, b int) float64 {
	d := math.Abs(float64(a - b))
	if d > 12 {
		d = 24 - d
	}
	return d
}

func (c *Catalog) topBy(n int, key func(*Site) float64) []*Site {
	sorted := c.Sites()
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
